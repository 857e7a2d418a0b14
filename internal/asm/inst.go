package asm

import (
	"fmt"
	"strconv"
	"strings"

	"dtsvliw/internal/isa"
)

// lower folds an ASCII upper-case letter to lower case.
func lower(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// hasPrefixFold reports whether s begins with prefix, which is lower
// case, ignoring the case of ASCII letters in s.
func hasPrefixFold(s, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		if lower(s[i]) != prefix[i] {
			return false
		}
	}
	return true
}

// regNum parses a register number: decimal digits only, so unlike
// strconv.Atoi it refuses a sign ("%g+3", "%r-0").
func regNum(s string) (int, bool) {
	if s == "" {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		if n < 100 { // saturate: no register number reaches 100
			n = n*10 + int(c-'0')
		}
	}
	return n, true
}

// parseReg parses an integer register name: %g0-7, %o0-7, %l0-7, %i0-7,
// %r0-31, %sp, %fp.
func parseReg(s string) (uint8, bool) {
	s = trimSpace(s)
	if len(s) < 3 || s[0] != '%' {
		return 0, false
	}
	kind := lower(s[1])
	if len(s) == 3 && lower(s[2]) == 'p' {
		switch kind {
		case 's':
			return 14, true // %o6
		case 'f':
			return 30, true // %i6
		}
	}
	n, ok := regNum(s[2:])
	if !ok {
		return 0, false
	}
	switch kind {
	case 'g':
		if n < 8 {
			return uint8(n), true
		}
	case 'o':
		if n < 8 {
			return uint8(n + 8), true
		}
	case 'l':
		if n < 8 {
			return uint8(n + 16), true
		}
	case 'i':
		if n < 8 {
			return uint8(n + 24), true
		}
	case 'r':
		if n < 32 {
			return uint8(n), true
		}
	}
	return 0, false
}

func parseFReg(s string) (uint8, bool) {
	s = trimSpace(s)
	if !hasPrefixFold(s, "%f") {
		return 0, false
	}
	n, ok := regNum(s[2:])
	if !ok || n > 31 {
		return 0, false
	}
	return uint8(n), true
}

// isY reports whether s names the Y register.
func isY(s string) bool {
	s = trimSpace(s)
	return len(s) == 2 && hasPrefixFold(s, "%y")
}

// eval evaluates a constant expression: sums/differences of numbers,
// labels, %hi(x) and %lo(x).
func (a *assembler) eval(lineNo int, expr string) (uint32, error) {
	expr = trimSpace(expr)
	if expr == "" {
		return 0, a.errf(lineNo, "empty expression")
	}
	var total uint32
	sign := uint32(1)
	i := 0
	expectTerm := true
	for i < len(expr) {
		c := expr[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '+' && !expectTerm:
			sign = 1
			expectTerm = true
			i++
		case c == '-' && !expectTerm:
			sign = ^uint32(0) // -1
			expectTerm = true
			i++
		default:
			j := i
			if expr[j] == '-' || expr[j] == '+' {
				j++
			}
			for j < len(expr) && expr[j] != '+' && expr[j] != '-' && expr[j] != ' ' {
				j++
			}
			// Allow %hi( / %lo( containing parens.
			if hasPrefixFold(expr[i:], "%hi(") || hasPrefixFold(expr[i:], "%lo(") {
				depth := 0
				j = i
				for j < len(expr) {
					if expr[j] == '(' {
						depth++
					} else if expr[j] == ')' {
						depth--
						if depth == 0 {
							j++
							break
						}
					}
					j++
				}
			}
			v, err := a.term(lineNo, expr[i:j])
			if err != nil {
				return 0, err
			}
			total += sign * v
			sign = 1
			expectTerm = false
			i = j
		}
	}
	return total, nil
}

func (a *assembler) term(lineNo int, t string) (uint32, error) {
	t = trimSpace(t)
	switch {
	case hasPrefixFold(t, "%hi(") && strings.HasSuffix(t, ")"):
		v, err := a.eval(lineNo, t[4:len(t)-1])
		if err != nil {
			return 0, err
		}
		return v >> 10, nil
	case hasPrefixFold(t, "%lo(") && strings.HasSuffix(t, ")"):
		v, err := a.eval(lineNo, t[4:len(t)-1])
		if err != nil {
			return 0, err
		}
		return v & 0x3FF, nil
	case t == ".":
		return a.cur.pc, nil
	}
	// Only terms starting with a digit (after an optional sign) can be
	// numbers; guarding the parse keeps symbol references from paying a
	// strconv error allocation each (symbols dominate terms in generated
	// sources, and a failed ParseInt heap-allocates its *NumError).
	if num := strings.TrimLeft(t, "+-"); num != "" && num[0] >= '0' && num[0] <= '9' {
		if n, err := strconv.ParseInt(t, 0, 64); err == nil {
			return uint32(n), nil
		}
		if n, err := strconv.ParseUint(t, 0, 64); err == nil {
			return uint32(n), nil
		}
	}
	if v, ok := a.symbols[t]; ok {
		return v, nil
	}
	if a.pass == 1 {
		// Defined further down, or never: pass 2 re-encodes this line.
		if a.unresolved == "" {
			a.unresolved = t
		}
		return 0, nil
	}
	return 0, a.errf(lineNo, "undefined symbol %q", t)
}

// regOrImm parses operand 2 of a format-3 instruction.
func (a *assembler) regOrImm(lineNo int, s string, in *isa.Inst) error {
	if r, ok := parseReg(s); ok {
		in.Rs2 = r
		return nil
	}
	v, err := a.eval(lineNo, s)
	if err != nil {
		return err
	}
	iv := int32(v)
	if iv < -4096 || iv > 4095 {
		return a.errf(lineNo, "immediate %d out of simm13 range", iv)
	}
	in.UseImm = true
	in.Imm = iv
	return nil
}

// pcRel returns the word displacement from the current pc to target for
// a call or branch. The byte distance must be a multiple of 4: the
// encoding has no bits for the remainder. A target not defined yet reads
// as 0 in pass 1 and gets its displacement in pass 2.
func (a *assembler) pcRel(lineNo int, m *mnemonic, target uint32) (int32, error) {
	if a.unresolved != "" {
		return 0, nil
	}
	d := int32(target - a.cur.pc)
	if d%4 != 0 {
		return 0, a.errf(lineNo, "%s: target %#x is %d bytes from pc %#x, not a multiple of 4",
			m.name, target, d, a.cur.pc)
	}
	return d / 4, nil
}

// parseMem parses a memory operand "[reg]", "[reg+imm]", "[reg-imm]",
// "[reg+reg]" or "[imm]".
func (a *assembler) parseMem(lineNo int, s string, in *isa.Inst) error {
	s = trimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return a.errf(lineNo, "expected memory operand, got %q", s)
	}
	body := trimSpace(s[1 : len(s)-1])
	// Try reg+reg / reg+imm / reg-imm.
	if r1, rest, ok := leadingReg(body); ok {
		in.Rs1 = r1
		rest = trimSpace(rest)
		if rest == "" {
			in.UseImm = true
			in.Imm = 0
			return nil
		}
		if rest[0] == '+' {
			if r2, ok := parseReg(rest[1:]); ok {
				in.Rs2 = r2
				return nil
			}
			return a.regOrImm(lineNo, rest[1:], in)
		}
		if rest[0] == '-' {
			return a.regOrImm(lineNo, rest, in)
		}
		return a.errf(lineNo, "bad memory operand %q", s)
	}
	// Absolute: [imm] with %g0 base.
	in.Rs1 = 0
	return a.regOrImm(lineNo, body, in)
}

func leadingReg(s string) (uint8, string, bool) {
	s = trimSpace(s)
	end := len(s)
	for i := 0; i < len(s); i++ {
		if s[i] == '+' || s[i] == '-' || s[i] == ' ' {
			end = i
			break
		}
	}
	r, ok := parseReg(s[:end])
	if !ok {
		return 0, s, false
	}
	return r, s[end:], true
}

// kind selects the operand handler of a mnemonic.
type kind uint8

const (
	kFixed  kind = iota // no operands: the template as is
	kMov                // mov reg_or_imm, rd
	kSet                // set value, rd: sethi + or
	kCmp                // cmp rs1, reg_or_imm
	kTst                // tst rs1
	kClr                // clr rd
	kIncDec             // inc/dec [amount,] rd
	kNeg                // neg rd
	kNot                // not rd
	kJmp                // jmp reg[+reg_or_imm]
	kRd                 // rd %y, rd
	kWr                 // wr rs1, reg_or_imm, %y
	kCall               // call target
	kTrap               // t<cond> reg_or_imm
	kBranch             // b<cond>[,a] / fb<cond>[,a] target
	kSethi              // sethi value, rd
	kLoad               // ld... [mem], rd
	kStore              // st... rd, [mem]
	kLoadF              // ldf/lddf [mem], fd
	kStoreF             // stf/stdf fd, [mem]
	kFP3                // fadds... fs1, fs2, fd
	kFP2                // fmovs... fs2, fd
	kFCmp               // fcmps/fcmpd fs1, fs2
	kALU                // add... rs1, reg_or_imm, rd (plus save/restore/jmpl forms)

	// Directives.
	dText
	dData
	dOrg
	dAlign
	dInt // .word/.half/.byte, size bytes per value
	dAscii
	dAsciz
	dSpace
	dIgnore
)

// mnemonic is one entry of the mnemonic table: the handler, the
// instruction template it fills in, and, for dInt, the size of each
// value.
type mnemonic struct {
	name string // lower case, as error messages print it
	kind kind
	inst isa.Inst
	size uint8
}

// mnemonics maps every lower-case mnemonic and directive to its entry.
var mnemonics = buildMnemonics()

// maxMnemonic bounds the length of a table key.
const maxMnemonic = 8

// lookup finds mn in the table, ignoring ASCII case.
func lookup(mn string) *mnemonic {
	var buf [maxMnemonic]byte
	if len(mn) > len(buf) {
		return nil
	}
	for i := 0; i < len(mn); i++ {
		buf[i] = lower(mn[i])
	}
	return mnemonics[string(buf[:len(mn)])]
}

func buildMnemonics() map[string]*mnemonic {
	t := map[string]*mnemonic{}
	add := func(name string, k kind, in isa.Inst) *mnemonic {
		if len(name) > maxMnemonic || t[name] != nil {
			panic("asm: mnemonic too long or defined twice: " + name)
		}
		m := &mnemonic{name: name, kind: k, inst: in}
		t[name] = m
		return m
	}
	op := func(o isa.Op) isa.Inst { return isa.Inst{Op: o} }

	add("nop", kFixed, isa.Inst{Op: isa.OpSETHI})
	add("ret", kFixed, isa.Inst{Op: isa.OpJMPL, Rs1: 31, UseImm: true, Imm: 8})
	add("retl", kFixed, isa.Inst{Op: isa.OpJMPL, Rs1: 15, UseImm: true, Imm: 8})
	add("unimp", kFixed, op(isa.OpUNIMP))
	add("mov", kMov, op(isa.OpOR))
	add("set", kSet, isa.Inst{})
	add("cmp", kCmp, op(isa.OpSUBCC))
	add("tst", kTst, op(isa.OpORCC))
	add("clr", kClr, op(isa.OpOR))
	add("inc", kIncDec, op(isa.OpADD))
	add("dec", kIncDec, op(isa.OpSUB))
	add("neg", kNeg, op(isa.OpSUB))
	add("not", kNot, op(isa.OpXNOR))
	add("jmp", kJmp, op(isa.OpJMPL))
	add("rd", kRd, op(isa.OpRDY))
	add("wr", kWr, op(isa.OpWRY))
	add("call", kCall, op(isa.OpCALL))
	add("sethi", kSethi, op(isa.OpSETHI))

	conds := map[string]uint8{
		"n": isa.CondN, "e": isa.CondE, "z": isa.CondE, "le": isa.CondLE, "l": isa.CondL,
		"leu": isa.CondLEU, "cs": isa.CondCS, "lu": isa.CondCS, "neg": isa.CondNEG,
		"vs": isa.CondVS, "a": isa.CondA, "ne": isa.CondNE, "nz": isa.CondNE,
		"g": isa.CondG, "ge": isa.CondGE, "gu": isa.CondGU, "cc": isa.CondCC,
		"geu": isa.CondCC, "pos": isa.CondPOS, "vc": isa.CondVC,
	}
	fconds := map[string]uint8{
		"n": 0, "ne": 1, "lg": 2, "ul": 3, "l": 4, "ug": 5, "g": 6, "u": 7,
		"a": 8, "e": 9, "ue": 10, "ge": 11, "uge": 12, "le": 13, "ule": 14, "o": 15,
	}
	branch := func(name string, o isa.Op, cond uint8) {
		add(name, kBranch, isa.Inst{Op: o, Cond: cond})
		add(name+",a", kBranch, isa.Inst{Op: o, Cond: cond, Annul: true})
	}
	for c, cond := range conds {
		add("t"+c, kTrap, isa.Inst{Op: isa.OpTICC, Cond: cond})
		branch("b"+c, isa.OpBICC, cond)
	}
	branch("b", isa.OpBICC, isa.CondA) // alias of ba
	for c, cond := range fconds {
		branch("fb"+c, isa.OpFBFCC, cond)
	}

	for k, ops := range map[kind]map[string]isa.Op{
		kLoad: {"ld": isa.OpLD, "ldub": isa.OpLDUB, "ldsb": isa.OpLDSB,
			"lduh": isa.OpLDUH, "ldsh": isa.OpLDSH, "ldd": isa.OpLDD,
			"ldstub": isa.OpLDSTUB, "swap": isa.OpSWAP},
		kStore:  {"st": isa.OpST, "stb": isa.OpSTB, "sth": isa.OpSTH, "std": isa.OpSTD},
		kLoadF:  {"ldf": isa.OpLDF, "lddf": isa.OpLDDF},
		kStoreF: {"stf": isa.OpSTF, "stdf": isa.OpSTDF},
		kFP3: {"fadds": isa.OpFADDS, "faddd": isa.OpFADDD, "fsubs": isa.OpFSUBS, "fsubd": isa.OpFSUBD,
			"fmuls": isa.OpFMULS, "fmuld": isa.OpFMULD, "fdivs": isa.OpFDIVS, "fdivd": isa.OpFDIVD},
		kFP2: {"fmovs": isa.OpFMOVS, "fnegs": isa.OpFNEGS, "fabss": isa.OpFABSS,
			"fitos": isa.OpFITOS, "fitod": isa.OpFITOD, "fstoi": isa.OpFSTOI,
			"fdtoi": isa.OpFDTOI, "fstod": isa.OpFSTOD, "fdtos": isa.OpFDTOS},
		kFCmp: {"fcmps": isa.OpFCMPS, "fcmpd": isa.OpFCMPD},
		kALU: {"add": isa.OpADD, "addcc": isa.OpADDCC, "addx": isa.OpADDX, "addxcc": isa.OpADDXCC,
			"sub": isa.OpSUB, "subcc": isa.OpSUBCC, "subx": isa.OpSUBX, "subxcc": isa.OpSUBXCC,
			"and": isa.OpAND, "andcc": isa.OpANDCC, "andn": isa.OpANDN, "andncc": isa.OpANDNCC,
			"or": isa.OpOR, "orcc": isa.OpORCC, "orn": isa.OpORN, "orncc": isa.OpORNCC,
			"xor": isa.OpXOR, "xorcc": isa.OpXORCC, "xnor": isa.OpXNOR, "xnorcc": isa.OpXNORCC,
			"sll": isa.OpSLL, "srl": isa.OpSRL, "sra": isa.OpSRA,
			"mulscc": isa.OpMULSCC, "save": isa.OpSAVE, "restore": isa.OpRESTORE,
			"jmpl": isa.OpJMPL},
	} {
		for name, o := range ops {
			add(name, k, op(o))
		}
	}

	add(".text", dText, isa.Inst{})
	add(".data", dData, isa.Inst{})
	add(".org", dOrg, isa.Inst{})
	add(".align", dAlign, isa.Inst{})
	add(".ascii", dAscii, isa.Inst{})
	add(".asciz", dAsciz, isa.Inst{})
	add(".space", dSpace, isa.Inst{})
	add(".skip", dSpace, isa.Inst{})
	add(".word", dInt, isa.Inst{}).size = 4
	add(".half", dInt, isa.Inst{}).size = 2
	add(".byte", dInt, isa.Inst{}).size = 1
	for _, name := range []string{".global", ".globl", ".type", ".size"} {
		add(name, dIgnore, isa.Inst{})
	}
	return t
}

// statement assembles one statement whose operands are rest.
func (a *assembler) statement(lineNo int, m *mnemonic, rest string) error {
	if m.kind >= dText {
		return a.directive(lineNo, m, rest)
	}
	ops := a.splitOps(rest)
	nOps := len(ops)
	mn := m.name
	in := m.inst

	need := func(n int) error {
		if nOps != n {
			return a.errf(lineNo, "%s: want %d operands, got %d (%q)", mn, n, nOps, rest)
		}
		return nil
	}

	switch m.kind {
	case kFixed:
		return a.emit(lineNo, in)
	case kMov:
		if err := need(2); err != nil {
			return err
		}
		rd, ok := parseReg(ops[1])
		if !ok {
			return a.errf(lineNo, "mov: bad destination %q", ops[1])
		}
		in.Rd = rd
		if err := a.regOrImm(lineNo, ops[0], &in); err != nil {
			return err
		}
		return a.emit(lineNo, in)
	case kSet:
		if err := need(2); err != nil {
			return err
		}
		rd, ok := parseReg(ops[1])
		if !ok {
			return a.errf(lineNo, "set: bad destination %q", ops[1])
		}
		v, err := a.eval(lineNo, ops[0])
		if err != nil {
			return err
		}
		if err := a.emit(lineNo, isa.Inst{Op: isa.OpSETHI, Rd: rd, Imm: int32(v >> 10)}); err != nil {
			return err
		}
		return a.emit(lineNo, isa.Inst{Op: isa.OpOR, Rs1: rd, Rd: rd, UseImm: true, Imm: int32(v & 0x3FF)})
	case kCmp:
		if err := need(2); err != nil {
			return err
		}
		rs1, ok := parseReg(ops[0])
		if !ok {
			return a.errf(lineNo, "cmp: bad register %q", ops[0])
		}
		in.Rs1 = rs1
		if err := a.regOrImm(lineNo, ops[1], &in); err != nil {
			return err
		}
		return a.emit(lineNo, in)
	case kTst, kClr:
		if err := need(1); err != nil {
			return err
		}
		r, ok := parseReg(ops[0])
		if !ok {
			return a.errf(lineNo, "%s: bad register %q", mn, ops[0])
		}
		if m.kind == kTst {
			in.Rs1 = r
		} else {
			in.Rd = r
		}
		return a.emit(lineNo, in)
	case kIncDec:
		amt := int32(1)
		var rd uint8
		var ok bool
		switch nOps {
		case 1:
			rd, ok = parseReg(ops[0])
		case 2:
			v, err := a.eval(lineNo, ops[0])
			if err != nil {
				return err
			}
			amt = int32(v)
			rd, ok = parseReg(ops[1])
		default:
			return need(1)
		}
		if !ok {
			return a.errf(lineNo, "%s: bad register", mn)
		}
		in.Rs1, in.Rd, in.UseImm, in.Imm = rd, rd, true, amt
		return a.emit(lineNo, in)
	case kNeg, kNot:
		if err := need(1); err != nil {
			return err
		}
		rd, ok := parseReg(ops[0])
		if !ok {
			return a.errf(lineNo, "%s: bad register", mn)
		}
		if m.kind == kNeg {
			in.Rs2 = rd // sub %g0, rd, rd
		} else {
			in.Rs1 = rd // xnor rd, %g0, rd
		}
		in.Rd = rd
		return a.emit(lineNo, in)
	case kJmp:
		if err := need(1); err != nil {
			return err
		}
		r1, rest2, ok := leadingReg(ops[0])
		if !ok {
			return a.errf(lineNo, "jmp: bad operand %q", ops[0])
		}
		in.Rs1 = r1
		rest2 = trimSpace(rest2)
		if rest2 == "" {
			in.UseImm, in.Imm = true, 0
		} else if rest2[0] == '+' {
			if err := a.regOrImm(lineNo, rest2[1:], &in); err != nil {
				return err
			}
		} else {
			return a.errf(lineNo, "jmp: bad operand %q", ops[0])
		}
		return a.emit(lineNo, in)
	case kRd:
		if err := need(2); err != nil {
			return err
		}
		if !isY(ops[0]) {
			return a.errf(lineNo, "rd: only %%y supported")
		}
		rd, ok := parseReg(ops[1])
		if !ok {
			return a.errf(lineNo, "rd: bad destination")
		}
		in.Rd = rd
		return a.emit(lineNo, in)
	case kWr:
		if err := need(3); err != nil {
			return err
		}
		if !isY(ops[2]) {
			return a.errf(lineNo, "wr: only %%y supported")
		}
		rs1, ok := parseReg(ops[0])
		if !ok {
			return a.errf(lineNo, "wr: bad source")
		}
		in.Rs1 = rs1
		if err := a.regOrImm(lineNo, ops[1], &in); err != nil {
			return err
		}
		return a.emit(lineNo, in)
	case kCall, kBranch:
		if err := need(1); err != nil {
			return err
		}
		v, err := a.eval(lineNo, ops[0])
		if err != nil {
			return err
		}
		if in.Imm, err = a.pcRel(lineNo, m, v); err != nil {
			return err
		}
		return a.emit(lineNo, in)
	case kTrap:
		if err := need(1); err != nil {
			return err
		}
		if err := a.regOrImm(lineNo, ops[0], &in); err != nil {
			return err
		}
		return a.emit(lineNo, in)
	case kSethi:
		if err := need(2); err != nil {
			return err
		}
		v, err := a.eval(lineNo, ops[0])
		if err != nil {
			return err
		}
		rd, ok := parseReg(ops[1])
		if !ok {
			return a.errf(lineNo, "sethi: bad destination %q", ops[1])
		}
		in.Rd, in.Imm = rd, int32(v&0x3FFFFF)
		return a.emit(lineNo, in)
	case kLoad:
		if err := need(2); err != nil {
			return err
		}
		if err := a.parseMem(lineNo, ops[0], &in); err != nil {
			return err
		}
		rd, ok := parseReg(ops[1])
		if !ok {
			return a.errf(lineNo, "%s: bad destination %q", mn, ops[1])
		}
		in.Rd = rd
		return a.emit(lineNo, in)
	case kStore:
		if err := need(2); err != nil {
			return err
		}
		rd, ok := parseReg(ops[0])
		if !ok {
			return a.errf(lineNo, "%s: bad source %q", mn, ops[0])
		}
		in.Rd = rd
		if err := a.parseMem(lineNo, ops[1], &in); err != nil {
			return err
		}
		return a.emit(lineNo, in)
	case kLoadF:
		if err := need(2); err != nil {
			return err
		}
		if err := a.parseMem(lineNo, ops[0], &in); err != nil {
			return err
		}
		fr, ok := parseFReg(ops[1])
		if !ok {
			return a.errf(lineNo, "%s: bad fp destination %q", mn, ops[1])
		}
		in.Rd = fr
		return a.emit(lineNo, in)
	case kStoreF:
		if err := need(2); err != nil {
			return err
		}
		fr, ok := parseFReg(ops[0])
		if !ok {
			return a.errf(lineNo, "%s: bad fp source %q", mn, ops[0])
		}
		in.Rd = fr
		if err := a.parseMem(lineNo, ops[1], &in); err != nil {
			return err
		}
		return a.emit(lineNo, in)
	case kFP3:
		if err := need(3); err != nil {
			return err
		}
		r1, ok1 := parseFReg(ops[0])
		r2, ok2 := parseFReg(ops[1])
		rd, ok3 := parseFReg(ops[2])
		if !ok1 || !ok2 || !ok3 {
			return a.errf(lineNo, "%s: bad fp operands", mn)
		}
		in.Rs1, in.Rs2, in.Rd = r1, r2, rd
		return a.emit(lineNo, in)
	case kFP2:
		if err := need(2); err != nil {
			return err
		}
		r2, ok1 := parseFReg(ops[0])
		rd, ok2 := parseFReg(ops[1])
		if !ok1 || !ok2 {
			return a.errf(lineNo, "%s: bad fp operands", mn)
		}
		in.Rs2, in.Rd = r2, rd
		return a.emit(lineNo, in)
	case kFCmp:
		if err := need(2); err != nil {
			return err
		}
		r1, ok1 := parseFReg(ops[0])
		r2, ok2 := parseFReg(ops[1])
		if !ok1 || !ok2 {
			return a.errf(lineNo, "%s: bad fp operands", mn)
		}
		in.Rs1, in.Rs2 = r1, r2
		return a.emit(lineNo, in)
	}

	// kALU: generic three-operand ALU, plus save/restore/jmpl forms.
	switch {
	case nOps == 0 && (in.Op == isa.OpRESTORE || in.Op == isa.OpSAVE):
		return a.emit(lineNo, in)
	case nOps == 3:
		rs1, ok1 := parseReg(ops[0])
		rd, ok3 := parseReg(ops[2])
		if !ok1 || !ok3 {
			return a.errf(lineNo, "%s: bad register operands (%q)", mn, rest)
		}
		in.Rs1, in.Rd = rs1, rd
		if err := a.regOrImm(lineNo, ops[1], &in); err != nil {
			return err
		}
		return a.emit(lineNo, in)
	case nOps == 2 && in.Op == isa.OpJMPL:
		// jmpl %r+imm, rd
		r1, rest2, ok := leadingReg(ops[0])
		if !ok {
			return a.errf(lineNo, "jmpl: bad operand %q", ops[0])
		}
		in.Rs1 = r1
		rest2 = trimSpace(rest2)
		if rest2 == "" {
			in.UseImm, in.Imm = true, 0
		} else if rest2[0] == '+' {
			if err := a.regOrImm(lineNo, rest2[1:], &in); err != nil {
				return err
			}
		} else if err := a.regOrImm(lineNo, rest2, &in); err != nil {
			return err
		}
		rd, ok := parseReg(ops[1])
		if !ok {
			return a.errf(lineNo, "jmpl: bad destination %q", ops[1])
		}
		in.Rd = rd
		return a.emit(lineNo, in)
	}
	return a.errf(lineNo, "%s: bad operand count %d", mn, nOps)
}

// MustAssemble assembles source or panics; for tests and embedded
// workloads whose sources are compile-time constants.
func MustAssemble(source string) *Program {
	p, err := Assemble(source)
	if err != nil {
		panic(fmt.Sprintf("MustAssemble: %v", err))
	}
	return p
}

// Package asm implements a two-pass assembler for the SPARC V7 subset in
// package isa, plus the program image the simulators load. It stands in
// for the paper's gcc toolchain: every workload in internal/workloads is
// written in this assembly dialect.
//
// Dialect summary:
//
//	! comment                     (also ; and # start comments)
//	.text [addr]   .data [addr]   .org addr
//	.word e, e ...  .half ...  .byte ...  .ascii "s"  .asciz "s"
//	.space n       .align n
//	label:
//	add %r1, %r2, %r3      add %o0, -4, %o1
//	ld [%l0+4], %o2        st %o2, [%l0+%l1]
//	sethi %hi(sym), %g1    or %g1, %lo(sym), %g1
//	ba loop   bne,a done   call func   jmpl %o7+8, %g0
//	save %sp, -96, %sp     restore
//	ta 0
//
// Pseudo-instructions: nop, mov, set, cmp, tst, clr, ret, retl, inc, dec,
// neg, not, b (alias of ba), jmp.
//
// Pass 1 scans every source line once: it splits off labels, looks the
// mnemonic up in one case-insensitive table, and assembles the line
// straight into its section. Symbols are defined as their labels are
// met, so only a line that reads a symbol defined further down cannot
// be encoded yet. Pass 1 still sizes such a line (an instruction is 4
// bytes, set is 8), fills its bytes with a placeholder and records it as
// a fixup: its line, address and operand span as offsets into the
// source. Pass 2 re-encodes just the fixups, in place. Expressions that
// decide the layout (.org, .align, .space, section origins) must
// therefore not use a symbol before its definition. Each section keeps a
// table of the source line of every instruction word it holds, which
// Program.LineOf searches.
//
// Sections may neither overlap, nor run past 0xffffffff, nor grow past
// 16 MiB. A call or branch target must lie a multiple of 4 bytes from
// the instruction, and a branch target within the signed 22-bit word
// displacement.
package asm

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"dtsvliw/internal/isa"
	"dtsvliw/internal/mem"
)

// Section is a contiguous byte range of the assembled image.
type Section struct {
	Addr  uint32
	Bytes []byte
	// lines holds one entry per instruction word in Bytes, in address
	// order.
	lines []wordLine
}

// wordLine records the 1-based source line of the instruction word at
// addr.
type wordLine struct {
	addr uint32
	line int32
}

// Program is an assembled image ready to load.
type Program struct {
	Sections []Section
	Entry    uint32
	Symbols  map[string]uint32
	TextBase uint32
	TextSize uint32
}

// LineOf returns the 1-based source line the instruction word at addr
// was assembled from, or 0 if addr holds no emitted instruction (data,
// padding). Pseudo-instructions that expand to several words (set, ...)
// map every word to the same line. Static checkers (internal/progcheck)
// use it to report diagnostics against the assembly source and to honour
// line-scoped waiver comments.
func (p *Program) LineOf(addr uint32) int {
	for i := range p.Sections {
		s := &p.Sections[i]
		if addr-s.Addr >= uint32(len(s.Bytes)) {
			continue
		}
		ls := s.lines
		j := sort.Search(len(ls), func(k int) bool { return ls[k].addr >= addr })
		if j < len(ls) && ls[j].addr == addr {
			return int(ls[j].line)
		}
		return 0
	}
	return 0
}

// Load copies the program into memory and returns nothing; pages are
// mapped as needed.
func (p *Program) Load(m *mem.Memory) {
	for _, s := range p.Sections {
		m.LoadBytes(s.Addr, s.Bytes)
	}
}

// Error is an assembly error with source position.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

// Section indices of assembler.secs.
const (
	secText = iota
	secData
)

type assembler struct {
	src     string
	symbols map[string]uint32
	secs    [2]secState
	cur     *secState
	pass    int
	// unresolved is the first symbol the current line read before its
	// definition ("" if none); pass 1 reads such a symbol as 0.
	unresolved string
	fixups     []fixup
	// patch is the stand-in section pass 2 re-encodes one fixup into:
	// its bytes end where the fixup starts, so appending overwrites the
	// placeholder in place.
	patch secState
	// ops is the operand-split scratch buffer, reused across lines so
	// assembling a large source costs O(1) slice allocations instead of
	// one per instruction. It starts in opsBuf.
	ops    []string
	opsBuf [4]string
}

type secState struct {
	name  string
	base  uint32
	pc    uint32
	bytes []byte
	lines []wordLine
}

// fixup is a line pass 1 could not encode because it reads a symbol
// defined further down. Pass 2 re-encodes its operands over the
// placeholder bytes at pc.
type fixup struct {
	m    *mnemonic
	sec  *secState
	line int32
	pc   uint32
	opLo int32 // operand span in the source
	opHi int32
}

// Assemble assembles source into a Program. The default text origin is
// 0x1000 and the default data origin is 0x40000; both can be overridden
// with .text/.data arguments. Entry defaults to the "start" or "main"
// symbol, else the text base.
func Assemble(source string) (*Program, error) {
	a := &assembler{
		src: source,
		// Every label ends in a colon, so this bounds the symbol count.
		symbols: make(map[string]uint32, strings.Count(source, ":")),
		pass:    1,
	}
	// Size the text image and its line table for one instruction word
	// per line, which covers typical code without regrowing.
	nLines := strings.Count(source, "\n") + 1
	a.secs[secText] = secState{name: "text", base: 0x1000, pc: 0x1000,
		bytes: make([]byte, 0, 4*nLines), lines: make([]wordLine, 0, nLines)}
	a.secs[secData] = secState{name: "data", base: 0x40000, pc: 0x40000}
	a.cur = &a.secs[secText]
	a.ops = a.opsBuf[:0]

	lineNo := 0
	for lo := 0; lo < len(source); {
		hi := strings.IndexByte(source[lo:], '\n')
		if hi < 0 {
			hi = len(source)
		} else {
			hi += lo
		}
		lineNo++
		if err := a.line(lineNo, lo, hi); err != nil {
			return nil, err
		}
		lo = hi + 1
	}

	a.pass = 2
	for i := range a.fixups {
		f := &a.fixups[i]
		s := f.sec
		a.patch = secState{name: s.name, base: s.base, pc: f.pc, bytes: s.bytes[:f.pc-s.base]}
		a.cur = &a.patch
		a.unresolved = ""
		if err := a.statement(int(f.line), f.m, source[f.opLo:f.opHi]); err != nil {
			return nil, err
		}
	}

	text := &a.secs[secText]
	p := &Program{
		Sections: make([]Section, 0, len(a.secs)),
		Symbols:  a.symbols,
		TextBase: text.base,
		TextSize: uint32(len(text.bytes)),
		Entry:    text.base,
	}
	for _, s := range a.secs {
		if len(s.bytes) > 0 {
			p.Sections = append(p.Sections, Section{Addr: s.base, Bytes: s.bytes, lines: s.lines})
		}
	}
	if v, ok := a.symbols["start"]; ok {
		p.Entry = v
	} else if v, ok := a.symbols["main"]; ok {
		p.Entry = v
	}
	return p, nil
}

// commentStart returns the index where line's comment begins, or
// len(line) if it has none.
func commentStart(line string) int {
	inStr := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		if c == '"' {
			inStr = !inStr
		}
		if !inStr && (c == '!' || c == ';' || c == '#') {
			return i
		}
	}
	return len(line)
}

// trimSpan returns the bounds of strings.TrimSpace(s[lo:hi]) within s.
func trimSpan(s string, lo, hi int) (int, int) {
	for lo < hi && asciiSpace(s[lo]) {
		lo++
	}
	for lo < hi && asciiSpace(s[hi-1]) {
		hi--
	}
	if lo < hi && (s[lo] >= utf8.RuneSelf || s[hi-1] >= utf8.RuneSelf) {
		// A non-ASCII end may be a Unicode space.
		t := strings.TrimLeftFunc(s[lo:hi], unicode.IsSpace)
		lo = hi - len(t)
		hi = lo + len(strings.TrimRightFunc(t, unicode.IsSpace))
	}
	return lo, hi
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// trimSpace is strings.TrimSpace with the call skipped for the common
// operand that has nothing to trim.
func trimSpace(s string) string {
	if n := len(s); n > 0 && s[0] > ' ' && s[0] < utf8.RuneSelf &&
		s[n-1] > ' ' && s[n-1] < utf8.RuneSelf {
		return s
	}
	return strings.TrimSpace(s)
}

func (a *assembler) errf(line int, format string, args ...interface{}) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// line is pass 1 over the source line a.src[lo:hi]: it defines the
// line's labels and assembles its statement, recording a fixup when the
// statement read a symbol not defined yet.
func (a *assembler) line(lineNo, lo, hi int) error {
	lo, hi = trimSpan(a.src, lo, lo+commentStart(a.src[lo:hi]))
	// Labels (possibly several) at line start.
	for lo < hi {
		i := strings.IndexByte(a.src[lo:hi], ':')
		if i < 0 {
			break
		}
		head := strings.TrimSpace(a.src[lo : lo+i])
		if head == "" || strings.ContainsAny(head, " \t\"[],") {
			break
		}
		if _, dup := a.symbols[head]; dup {
			return a.errf(lineNo, "duplicate label %q", head)
		}
		a.symbols[head] = a.cur.pc
		lo, hi = trimSpan(a.src, lo+i+1, hi)
	}
	if lo == hi {
		return nil
	}

	// The mnemonic runs to the first space or tab.
	end := lo
	for end < hi && a.src[end] != ' ' && a.src[end] != '\t' {
		end++
	}
	mn := a.src[lo:end]
	m := lookup(mn)
	if m == nil {
		if mn[0] == '.' {
			return a.errf(lineNo, "unknown directive %s", strings.ToLower(mn))
		}
		return a.errf(lineNo, "unknown instruction %q", strings.ToLower(mn))
	}
	opLo, opHi := trimSpan(a.src, end, hi)
	sec, pc := a.cur, a.cur.pc
	a.unresolved = ""
	if err := a.statement(lineNo, m, a.src[opLo:opHi]); err != nil {
		return err
	}
	if a.unresolved != "" {
		a.fixups = append(a.fixups, fixup{m: m, sec: sec, line: int32(lineNo),
			pc: pc, opLo: int32(opLo), opHi: int32(opHi)})
	}
	return nil
}

// settled refuses a layout expression (a section origin, .org, .align,
// .space) that read a symbol before its definition: pass 1 places every
// byte once, so where later bytes go must be known when it gets there.
func (a *assembler) settled(lineNo int, m *mnemonic) error {
	if a.unresolved != "" {
		return a.errf(lineNo, "%s reads %q before its definition", m.name, a.unresolved)
	}
	return nil
}

func (a *assembler) directive(lineNo int, m *mnemonic, rest string) error {
	switch m.kind {
	case dText, dData:
		s := &a.secs[secText]
		if m.kind == dData {
			s = &a.secs[secData]
		}
		if rest != "" {
			v, err := a.eval(lineNo, rest)
			if err != nil {
				return err
			}
			if len(s.bytes) == 0 {
				if err := a.settled(lineNo, m); err != nil {
					return err
				}
				s.base, s.pc = v, v
			}
		}
		a.cur = s
		return nil
	case dOrg:
		v, err := a.eval(lineNo, rest)
		if err != nil {
			return err
		}
		if v < a.cur.pc {
			return a.errf(lineNo, ".org %#x before current pc %#x", v, a.cur.pc)
		}
		if err := a.settled(lineNo, m); err != nil {
			return err
		}
		return a.zeros(lineNo, uint64(v-a.cur.pc))
	case dAlign:
		n, err := a.eval(lineNo, rest)
		if err != nil {
			return err
		}
		if n == 0 || n&(n-1) != 0 {
			return a.errf(lineNo, ".align %d not a power of two", n)
		}
		if err := a.settled(lineNo, m); err != nil {
			return err
		}
		return a.zeros(lineNo, uint64((n-a.cur.pc%n)%n))
	case dInt:
		size := uint(m.size)
		for _, part := range a.splitOps(rest) {
			v, err := a.eval(lineNo, part)
			if err != nil {
				return err
			}
			if err := a.reserve(lineNo, uint64(size)); err != nil {
				return err
			}
			for i := size; i > 0; i-- {
				a.cur.bytes = append(a.cur.bytes, byte(v>>(8*(i-1))))
			}
			a.cur.pc += uint32(size)
		}
		return nil
	case dAscii, dAsciz:
		s, err := strconv.Unquote(rest)
		if err != nil {
			return a.errf(lineNo, "bad string %s", rest)
		}
		n := uint64(len(s))
		if m.kind == dAsciz {
			n++
		}
		if err := a.reserve(lineNo, n); err != nil {
			return err
		}
		a.cur.bytes = append(a.cur.bytes, s...)
		if m.kind == dAsciz {
			a.cur.bytes = append(a.cur.bytes, 0)
		}
		a.cur.pc += uint32(n)
		return nil
	case dSpace:
		n, err := a.eval(lineNo, rest)
		if err != nil {
			return err
		}
		if err := a.settled(lineNo, m); err != nil {
			return err
		}
		return a.zeros(lineNo, uint64(n))
	}
	return nil // dIgnore: accepted, ignored
}

// maxSectionBytes bounds each section of an assembled image. Workload
// and generated programs are tens of KB, while .space, .org and .align
// can ask for gigabytes of padding in a few bytes of source.
const maxSectionBytes = 16 << 20

// reserve checks, in pass 1, that n more bytes fit the current section:
// it may neither run past the top of the 32-bit address space, nor grow
// past maxSectionBytes, nor reach into the other section's bytes.
func (a *assembler) reserve(lineNo int, n uint64) error {
	if a.pass != 1 || n == 0 {
		return nil
	}
	s := a.cur
	end := uint64(s.pc) + n
	if end > math.MaxUint32 {
		return a.errf(lineNo, "%s section wraps past address 0xffffffff", s.name)
	}
	if size := end - uint64(s.base); size > maxSectionBytes {
		return a.errf(lineNo, "%s section would grow to %d bytes, past the %d-byte limit",
			s.name, size, maxSectionBytes)
	}
	o := &a.secs[secText]
	if s == o {
		o = &a.secs[secData]
	}
	if len(o.bytes) > 0 && uint64(o.base) < end && s.base < o.pc {
		return a.errf(lineNo, "%s section [%#x, %#x) overlaps %s section [%#x, %#x)",
			s.name, s.base, end, o.name, o.base, o.pc)
	}
	return nil
}

// zeros emits n zero bytes.
func (a *assembler) zeros(lineNo int, n uint64) error {
	if err := a.reserve(lineNo, n); err != nil {
		return err
	}
	s := a.cur
	old, end := len(s.bytes), len(s.bytes)+int(n)
	if end > cap(s.bytes) {
		// Not append(s.bytes, make([]byte, n)...): that allocates twice
		// under the race detector.
		s.bytes = append(make([]byte, 0, max(end, 2*cap(s.bytes))), s.bytes...)
	}
	s.bytes = s.bytes[:end]
	clear(s.bytes[old:])
	s.pc += uint32(n)
	return nil
}

// emit encodes one instruction word and, in pass 1, records its line.
func (a *assembler) emit(lineNo int, in isa.Inst) error {
	w, err := isa.Encode(in)
	if err != nil {
		return a.errf(lineNo, "%v", err)
	}
	if err := a.reserve(lineNo, 4); err != nil {
		return err
	}
	s := a.cur
	if a.pass == 1 {
		s.lines = append(s.lines, wordLine{addr: s.pc, line: int32(lineNo)})
	}
	s.bytes = append(s.bytes, byte(w>>24), byte(w>>16), byte(w>>8), byte(w))
	s.pc += 4
	return nil
}

// splitOperands splits on commas that are not inside brackets or quotes.
func splitOperands(s string) []string { return splitOperandsInto(s, nil) }

// splitOperandsInto is splitOperands appending into out's storage; the
// assembler passes its reusable scratch buffer.
func splitOperandsInto(s string, out []string) []string {
	depth := 0
	inStr := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case '[', '(':
			depth++
		case ']', ')':
			depth--
		case ',':
			if depth == 0 && !inStr {
				out = append(out, trimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	last := trimSpace(s[start:])
	if last != "" || len(out) > 0 {
		out = append(out, last)
	}
	return out
}

// splitOps splits rest into a's scratch buffer. The returned slice is
// valid until the next splitOps call; operand evaluation never re-splits,
// so each line's use is complete before the buffer is reused.
func (a *assembler) splitOps(rest string) []string {
	a.ops = splitOperandsInto(rest, a.ops[:0])
	return a.ops
}

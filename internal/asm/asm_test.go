package asm

import (
	"fmt"
	"strings"
	"testing"

	"dtsvliw/internal/isa"
	"dtsvliw/internal/progen"
)

func assemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

// textWords decodes the text section into instructions.
func textWords(t *testing.T, p *Program) []isa.Inst {
	t.Helper()
	for _, s := range p.Sections {
		if s.Addr != p.TextBase {
			continue
		}
		var out []isa.Inst
		for i := 0; i+4 <= len(s.Bytes); i += 4 {
			raw := uint32(s.Bytes[i])<<24 | uint32(s.Bytes[i+1])<<16 |
				uint32(s.Bytes[i+2])<<8 | uint32(s.Bytes[i+3])
			in, err := isa.Decode(raw)
			if err != nil {
				t.Fatalf("decode word %d: %v", i/4, err)
			}
			out = append(out, in)
		}
		return out
	}
	t.Fatal("no text section")
	return nil
}

func TestBasicInstructions(t *testing.T) {
	p := assemble(t, `
	.text 0x1000
start:
	add %g1, %g2, %g3
	sub %o0, -5, %o1
	ld [%l0+8], %l1
	st %l1, [%l0+%l2]
	sethi %hi(0x40000), %g1
	or %g1, %lo(0x40000), %g1
`)
	ins := textWords(t, p)
	if ins[0].Op != isa.OpADD || ins[0].Rd != 3 || ins[0].Rs1 != 1 || ins[0].Rs2 != 2 {
		t.Errorf("add wrong: %+v", ins[0])
	}
	if ins[1].Op != isa.OpSUB || !ins[1].UseImm || ins[1].Imm != -5 {
		t.Errorf("sub imm wrong: %+v", ins[1])
	}
	if ins[2].Op != isa.OpLD || ins[2].Imm != 8 || ins[2].Rs1 != 16 || ins[2].Rd != 17 {
		t.Errorf("ld wrong: %+v", ins[2])
	}
	if ins[3].Op != isa.OpST || ins[3].UseImm || ins[3].Rs2 != 18 {
		t.Errorf("st reg+reg wrong: %+v", ins[3])
	}
	if ins[4].Op != isa.OpSETHI || uint32(ins[4].Imm)<<10 != 0x40000 {
		t.Errorf("sethi wrong: %+v", ins[4])
	}
	if ins[5].Imm != 0 { // 0x40000 & 0x3FF
		t.Errorf("lo() wrong: %+v", ins[5])
	}
}

func TestPseudoInstructions(t *testing.T) {
	p := assemble(t, `
	.text 0x1000
start:
	nop
	mov 7, %o0
	clr %o1
	cmp %o0, %o1
	tst %o0
	ret
	retl
	neg %o2
	not %o3
	inc %o4
	dec 4, %o5
`)
	ins := textWords(t, p)
	if !ins[0].IsNop() {
		t.Error("nop not nop")
	}
	if ins[1].Op != isa.OpOR || ins[1].Rs1 != 0 || ins[1].Imm != 7 || ins[1].Rd != 8 {
		t.Errorf("mov: %+v", ins[1])
	}
	if ins[3].Op != isa.OpSUBCC || ins[3].Rd != 0 {
		t.Errorf("cmp: %+v", ins[3])
	}
	if ins[5].Op != isa.OpJMPL || ins[5].Rs1 != 31 || ins[5].Imm != 8 {
		t.Errorf("ret: %+v", ins[5])
	}
	if ins[6].Rs1 != 15 {
		t.Errorf("retl: %+v", ins[6])
	}
	if ins[10].Op != isa.OpSUB || ins[10].Imm != 4 {
		t.Errorf("dec 4: %+v", ins[10])
	}
}

func TestBranchTargets(t *testing.T) {
	p := assemble(t, `
	.text 0x1000
start:
	nop
back:
	ba back
	be,a fwd
	call fwd
fwd:
	nop
`)
	ins := textWords(t, p)
	// ba back at 0x1004, target 0x1004
	if got := ins[1].BranchTarget(0x1004); got != 0x1004 {
		t.Errorf("ba target %#x", got)
	}
	if !ins[2].Annul {
		t.Error("annul bit lost")
	}
	if got := ins[2].BranchTarget(0x1008); got != 0x1010 {
		t.Errorf("be,a target %#x", got)
	}
	if got := ins[3].BranchTarget(0x100c); got != 0x1010 {
		t.Errorf("call target %#x", got)
	}
}

func TestDataDirectives(t *testing.T) {
	p := assemble(t, `
	.data 0x40000
a:	.word 0x11223344, 2
b:	.half 0x5566
c:	.byte 1, 2, 3
	.align 4
d:	.ascii "hi"
e:	.asciz "ok"
f:	.space 5
end:
	.text 0x1000
start:	nop
`)
	var data []byte
	for _, s := range p.Sections {
		if s.Addr == 0x40000 {
			data = s.Bytes
		}
	}
	want := []byte{0x11, 0x22, 0x33, 0x44, 0, 0, 0, 2, 0x55, 0x66, 1, 2, 3, 0, 0, 0,
		'h', 'i', 'o', 'k', 0}
	for i, b := range want {
		if data[i] != b {
			t.Fatalf("data[%d] = %#x, want %#x (have % x)", i, data[i], b, data[:len(want)])
		}
	}
	if p.Symbols["b"] != 0x40008 || p.Symbols["d"] != 0x40010 {
		t.Errorf("symbols: b=%#x d=%#x", p.Symbols["b"], p.Symbols["d"])
	}
	if p.Symbols["end"] != 0x40000+uint32(len(want))+5 {
		t.Errorf("end=%#x", p.Symbols["end"])
	}
}

func TestForwardReferences(t *testing.T) {
	p := assemble(t, `
	.text 0x1000
start:
	set later, %g1
	ba later
later:
	nop
`)
	if p.Symbols["later"] != 0x100c {
		t.Errorf("later = %#x", p.Symbols["later"])
	}
}

// ErrorCases are sources the assembler must refuse, each with a fragment
// its error must contain. The table is exported for the external golden
// test, which pins every row's full error text.
var ErrorCases = []struct {
	Src, Want string
}{
	{"\tfoo %g1, %g2, %g3\n", "unknown instruction"},
	{"\tadd %g1, 99999, %g3\n", "out of simm13"},
	{"\tba nowhere\n", "undefined symbol"},
	{"dup:\n\tnop\ndup:\n\tnop\n", "duplicate label"},
	{"\t.bogus 3\n", "unknown directive"},
	{"\tmov 1\n", "want 2 operands"},
	{"\tld %g1, %g2\n", "expected memory operand"},
	{"\tcall 0x1006\n", "call: target 0x1006 is 6 bytes from pc 0x1000, not a multiple of 4"},
	{"\tba 0x100A\n", "ba: target 0x100a is 10 bytes from pc 0x1000, not a multiple of 4"},
	{"\tba far\n\t.data 0x1001000\nfar:\t.word 0\n", "disp22 out of range"},
	{"\tmov 1, %g+3\n", "mov: bad destination"},
	{"\tadd %r-0, 1, %g1\n", "add: bad register operands"},
	{"\tnop\n\tnop\n\tnop\n\t.data 0x1004\n\t.word 1\n", "data section [0x1004, 0x1008) overlaps text section [0x1000, 0x100c)"},
	{"\t.text 0xFFFFFFF8\n\tnop\n\tnop\n\tnop\n\tnop\n", "text section wraps past address 0xffffffff"},
	{"\t.space end-start\nstart:\tnop\nend:\n", `.space reads "end" before its definition`},
	{"\t.data 0\n\t.space 0x3f092a35\n", "data section would grow to 1057565237 bytes, past the 16777216-byte limit"},
}

func TestErrors(t *testing.T) {
	for _, c := range ErrorCases {
		_, err := Assemble(c.Src)
		if err == nil || !strings.Contains(err.Error(), c.Want) {
			t.Errorf("source %q: error %v, want contains %q", c.Src, err, c.Want)
		}
	}
}

// TestSectionSizeLimit: a section may hold exactly maxSectionBytes, and
// the line that reserves one byte more is refused with its line number.
func TestSectionSizeLimit(t *testing.T) {
	src := fmt.Sprintf("\t.data 0\n\t.space %d\n", maxSectionBytes)
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("section of exactly %d bytes refused: %v", maxSectionBytes, err)
	}
	if n := len(p.Sections[len(p.Sections)-1].Bytes); n != maxSectionBytes {
		t.Fatalf("data section holds %d bytes, want %d", n, maxSectionBytes)
	}
	_, err = Assemble(src + "\t.byte 1\n")
	if aerr, ok := err.(*Error); !ok || aerr.Line != 3 || !strings.Contains(aerr.Msg, "past the 16777216-byte limit") {
		t.Fatalf("one byte past the limit: error %v, want the limit on line 3", err)
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	_, err := Assemble("\tnop\n\tnop\n\tbadop\n")
	aerr, ok := err.(*Error)
	if !ok || aerr.Line != 3 {
		t.Fatalf("error %v, want line 3", err)
	}
}

func TestCommentsAndLabels(t *testing.T) {
	p := assemble(t, `
	! full line comment
	.text 0x1000
start: nop  ! trailing
a: b: nop   ; two labels one line
	nop # hash comment
`)
	if p.Symbols["a"] != p.Symbols["b"] || p.Symbols["a"] != 0x1004 {
		t.Errorf("labels a=%#x b=%#x", p.Symbols["a"], p.Symbols["b"])
	}
}

func TestEntryResolution(t *testing.T) {
	p := assemble(t, "\t.text 0x2000\nmain:\n\tnop\n")
	if p.Entry != 0x2000 {
		t.Errorf("entry = %#x, want main", p.Entry)
	}
	p = assemble(t, "\t.text 0x2000\nfoo:\n\tnop\n")
	if p.Entry != 0x2000 {
		t.Errorf("entry = %#x, want text base", p.Entry)
	}
}

func TestSplitOperands(t *testing.T) {
	got := splitOperands(`[%g1+4], %o0`)
	if len(got) != 2 || got[0] != "[%g1+4]" || got[1] != "%o0" {
		t.Errorf("splitOperands: %q", got)
	}
	got = splitOperands(`"a,b", 3`)
	if len(got) != 2 || got[0] != `"a,b"` {
		t.Errorf("splitOperands quoted: %q", got)
	}
}

func TestFloatAndTrap(t *testing.T) {
	p := assemble(t, `
	.text 0x1000
start:
	ldf [%l0], %f1
	fadds %f1, %f2, %f3
	fcmpd %f4, %f6
	fble start
	ta 5
	tne 2
`)
	ins := textWords(t, p)
	if ins[0].Op != isa.OpLDF || ins[0].Rd != 1 {
		t.Errorf("ldf: %+v", ins[0])
	}
	if ins[1].Op != isa.OpFADDS || ins[1].Rs1 != 1 || ins[1].Rs2 != 2 || ins[1].Rd != 3 {
		t.Errorf("fadds: %+v", ins[1])
	}
	if ins[2].Op != isa.OpFCMPD || ins[2].Rs1 != 4 || ins[2].Rs2 != 6 {
		t.Errorf("fcmpd: %+v", ins[2])
	}
	if ins[3].Op != isa.OpFBFCC {
		t.Errorf("fble: %+v", ins[3])
	}
	if ins[4].Op != isa.OpTICC || ins[4].Cond != isa.CondA || ins[4].Imm != 5 {
		t.Errorf("ta: %+v", ins[4])
	}
	if ins[5].Op != isa.OpTICC || ins[5].Cond != isa.CondNE {
		t.Errorf("tne: %+v", ins[5])
	}
}

// TestAssembleAllocBound pins the allocations of assembling one
// generated program per shape at their measured counts. Allocation
// counts carry no timing noise, so a regression fails here rather than
// hiding in benchmark spread.
func TestAssembleAllocBound(t *testing.T) {
	bounds := map[progen.Shape]float64{
		progen.ShapeMixed:      15,
		progen.ShapeBranchy:    19,
		progen.ShapeAliasing:   14,
		progen.ShapeMulticycle: 16,
	}
	for _, shape := range progen.Shapes() {
		src := progen.Generate(progen.ShapeParams(shape, 1))
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Assemble(src); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > bounds[shape] {
			t.Errorf("%s: Assemble allocates %.0f times per program, bound %.0f", shape, allocs, bounds[shape])
		}
	}
}

// TestTrimSpan: trimSpan bounds exactly what strings.TrimSpace keeps,
// Unicode spaces and invalid UTF-8 included.
func TestTrimSpan(t *testing.T) {
	for _, s := range []string{"", " ", "\t nop \r", " nop\u0085", "\u00a0 x\u3000 ",
		"\xffx\xff", " a b ", "\u2028", "x"} {
		src := "<" + s + ">"
		lo, hi := trimSpan(src, 1, len(src)-1)
		if got, want := src[lo:hi], strings.TrimSpace(s); got != want {
			t.Errorf("trimSpan(%q) = %q, want %q", s, got, want)
		}
	}
}

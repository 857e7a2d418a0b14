package asm

import (
	"math"
	"reflect"
	"testing"

	"dtsvliw/internal/isa"
	"dtsvliw/internal/progen"
)

// FuzzAssemble: the assembler must reject or accept arbitrary input
// without panicking. Anything it accepts must be deterministic (a second
// assembly gives an equal Program), must lay its sections out without
// overlap or wrap-around, and every word LineOf maps to a source line
// must decode cleanly. Only those words: data directives legitimately
// place non-instructions in .text.
func FuzzAssemble(f *testing.F) {
	seeds := []string{
		"\t.text 0x1000\nstart:\n\tnop\n\tta 0\n",
		"\tadd %g1, %g2, %g3\n",
		"lbl:\tld [%l0+4], %o0\n\tba lbl\n",
		"\t.data\nx:\t.word 1,2,3\n\t.ascii \"hi\"\n",
		"\tset 0xDEADBEEF, %o0\n\tcmp %o0, 0\n",
		"\t.align 8\n\t.space 12\n",
		"\tfadds %f0, %f1, %f2\n\tfble start\n",
		"bad",
		"\t.word",
		"a:a:a:",
		".AsCiZ \"\\xff0\"",
	}
	for _, shape := range progen.Shapes() {
		seeds = append(seeds, progen.Generate(progen.ShapeParams(shape, 1)))
	}
	for _, c := range ErrorCases {
		seeds = append(seeds, c.Src)
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if again, err := Assemble(src); err != nil || !reflect.DeepEqual(p, again) {
			t.Fatalf("assembling %q twice differs (second error %v)", src, err)
		}
		for i, s := range p.Sections {
			end := uint64(s.Addr) + uint64(len(s.Bytes))
			if end > math.MaxUint32 {
				t.Fatalf("section at %#x wraps past 0xffffffff: %q", s.Addr, src)
			}
			for _, o := range p.Sections[i+1:] {
				if uint64(o.Addr) < end && uint64(s.Addr) < uint64(o.Addr)+uint64(len(o.Bytes)) {
					t.Fatalf("sections at %#x and %#x overlap: %q", s.Addr, o.Addr, src)
				}
			}
			for off := 0; off+4 <= len(s.Bytes); off++ {
				if p.LineOf(s.Addr+uint32(off)) == 0 {
					continue
				}
				b := s.Bytes[off : off+4]
				raw := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
				if _, err := isa.Decode(raw); err != nil {
					t.Fatalf("assembler emitted undecodable word %#08x at %#x from %q",
						raw, s.Addr+uint32(off), src)
				}
			}
		}
	})
}

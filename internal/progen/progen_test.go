package progen

import (
	"testing"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/asm"
	"dtsvliw/internal/mem"
)

// TestGeneratedProgramsTerminate: every generated program assembles and
// halts under the sequential interpreter within a bounded instruction
// count, across feature mixes.
func TestGeneratedProgramsTerminate(t *testing.T) {
	mixes := []Params{
		DefaultParams(0),
		{Seed: 0, Items: 80, MaxDepth: 4, Mem: true},
		{Seed: 0, Items: 30, MaxDepth: 2, FP: true},
		{Seed: 0, Items: 50, MaxDepth: 3, Calls: true},
		{Seed: 0, Items: 20, MaxDepth: 1},
	}
	n := 40
	if testing.Short() {
		n = 10
	}
	for _, mix := range mixes {
		for seed := int64(0); seed < int64(n); seed++ {
			p := mix
			p.Seed = seed
			src := Generate(p)
			prog, err := asm.Assemble(src)
			if err != nil {
				t.Fatalf("seed %d mix %+v: %v\n%s", seed, mix, err, src)
			}
			m := mem.NewMemory()
			prog.Load(m)
			m.Map(0x7F000, 0x1000)
			st := arch.NewState(8, m)
			st.PC = prog.Entry
			st.SetReg(14, 0x7FF00)
			st.SetTextRange(prog.TextBase, prog.TextSize)
			if err := st.Run(5_000_000); err != nil {
				t.Fatalf("seed %d mix %+v: %v", seed, mix, err)
			}
			if !st.Halted {
				t.Fatalf("seed %d: did not halt", seed)
			}
		}
	}
}

// TestShapesTerminate: every shape generates assemblable programs that
// halt, and the shapes actually emit their signature hazards.
func TestShapesTerminate(t *testing.T) {
	n := 30
	if testing.Short() {
		n = 8
	}
	for _, shape := range Shapes() {
		t.Run(shape.String(), func(t *testing.T) {
			for seed := int64(0); seed < int64(n); seed++ {
				src := Generate(ShapeParams(shape, seed))
				prog, err := asm.Assemble(src)
				if err != nil {
					t.Fatalf("seed %d: %v\n%s", seed, err, src)
				}
				m := mem.NewMemory()
				prog.Load(m)
				m.Map(0x7F000, 0x1000)
				st := arch.NewState(8, m)
				st.PC = prog.Entry
				st.SetReg(14, 0x7FF00)
				st.SetTextRange(prog.TextBase, prog.TextSize)
				if err := st.Run(5_000_000); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !st.Halted {
					t.Fatalf("seed %d: did not halt", seed)
				}
			}
		})
	}
}

// TestShapeNames: shape names round-trip through ShapeByName.
func TestShapeNames(t *testing.T) {
	for _, s := range Shapes() {
		got, ok := ShapeByName(s.String())
		if !ok || got != s {
			t.Fatalf("shape %v does not round-trip (%v, %v)", s, got, ok)
		}
	}
	if _, ok := ShapeByName("nonsense"); ok {
		t.Fatal("bogus shape name resolved")
	}
}

// TestDeterminism: the same seed generates the same program and the same
// architectural result.
func TestDeterminism(t *testing.T) {
	a := Generate(DefaultParams(123))
	b := Generate(DefaultParams(123))
	if a != b {
		t.Fatal("generation not deterministic")
	}
	run := func(src string) (uint32, uint64) {
		prog := asm.MustAssemble(src)
		m := mem.NewMemory()
		prog.Load(m)
		m.Map(0x7F000, 0x1000)
		st := arch.NewState(8, m)
		st.PC = prog.Entry
		st.SetReg(14, 0x7FF00)
		if err := st.Run(5_000_000); err != nil {
			t.Fatal(err)
		}
		return st.ExitCode, st.Instret
	}
	e1, i1 := run(a)
	e2, i2 := run(b)
	if e1 != e2 || i1 != i2 {
		t.Fatalf("non-deterministic run: %d/%d vs %d/%d", e1, i1, e2, i2)
	}
}

// TestSeedsDiffer: different seeds explore different programs.
func TestSeedsDiffer(t *testing.T) {
	if Generate(DefaultParams(1)) == Generate(DefaultParams(2)) {
		t.Fatal("seeds 1 and 2 generated identical programs")
	}
}

// TestGenerateAllocBound pins the allocations of generating one program
// per shape at their measured count: the generator state, its random
// source, the two text buffers and the returned string.
func TestGenerateAllocBound(t *testing.T) {
	const bound = 5
	for _, shape := range Shapes() {
		p := ShapeParams(shape, 1)
		if allocs := testing.AllocsPerRun(20, func() { Generate(p) }); allocs > bound {
			t.Errorf("%s: Generate allocates %.0f times per program, bound %d", shape, allocs, bound)
		}
	}
}

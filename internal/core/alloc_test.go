package core

import (
	"testing"

	"dtsvliw/internal/asm"
	"dtsvliw/internal/progen"
)

// TestWarmRerunAllocBound is the whole-run allocation guard: a
// MachineContext that has run a program once must rerun it at under one
// allocation per ten simulated instructions. Scheduler blocks, slot
// arenas and lowered forms are all recycled through Reset, so a leak on
// the block write path (Insert, Lower, Save) that allocates per
// scheduled instruction fails here. A leak of a few allocations per
// block lands near the bound; the scheduler and lowering guards catch
// those exactly. What a warm rerun still allocates is storage the VLIW
// Cache displaced or invalidated mid-run, which goes to the garbage
// collector.
func TestWarmRerunAllocBound(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"ideal-8x8", IdealConfig(8, 8)},
		{"feasible", FeasibleConfig()},
	}
	for _, c := range configs {
		for _, shape := range progen.Shapes() {
			t.Run(c.name+"/"+shape.String(), func(t *testing.T) {
				p, err := asm.Assemble(progen.Generate(progen.ShapeParams(shape, 1)))
				if err != nil {
					t.Fatal(err)
				}
				ctx, err := NewMachineContext(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				var retired uint64
				run := func() {
					st := ctx.State()
					st.LoadProgram(p)
					m, err := ctx.Prepare()
					if err != nil {
						t.Fatal(err)
					}
					if err := m.Run(); err != nil {
						t.Fatal(err)
					}
					if !st.Halted {
						t.Fatal("program did not halt")
					}
					retired = m.Stats.Retired
					ctx.Recycle()
				}
				run() // cold: builds the machine and fills every pool
				allocs := testing.AllocsPerRun(5, run)
				perInstr := allocs / float64(retired)
				t.Logf("%.0f allocs over %d instructions (%.4f/instr)", allocs, retired, perInstr)
				if perInstr >= 0.1 {
					t.Fatalf("warm rerun allocates %.3f times per simulated instruction (%.0f over %d), want < 0.1",
						perInstr, allocs, retired)
				}
			})
		}
	}
}

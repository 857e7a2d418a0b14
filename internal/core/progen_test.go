package core

import (
	"fmt"
	"testing"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/progen"
)

// runSequential executes a program on the plain sequential interpreter.
func runSequential(t *testing.T, source string) *arch.State {
	t.Helper()
	s := buildState(t, source, 8)
	if err := s.Run(80_000_000); err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	return s
}

// TestRandomProgramEquivalence is the central correctness property of the
// reproduction: for random programs full of aliasing hazards, speculation
// and window traffic, the DTSVLIW in lockstep test mode must match
// sequential execution at every synchronisation point and produce the same
// final state.
func TestRandomProgramEquivalence(t *testing.T) {
	geos := [][2]int{{4, 4}, {8, 4}, {4, 8}, {8, 8}, {16, 8}, {2, 16}, {3, 5}}
	seeds := 30
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		src := progen.Generate(progen.DefaultParams(int64(seed)))
		ref := runSequential(t, src)
		geo := geos[seed%len(geos)]
		t.Run(fmt.Sprintf("seed%d_%dx%d", seed, geo[0], geo[1]), func(t *testing.T) {
			m := runDTSVLIW(t, src, IdealConfig(geo[0], geo[1]))
			if m.St.ExitCode != ref.ExitCode {
				t.Errorf("exit code %d != sequential %d", m.St.ExitCode, ref.ExitCode)
			}
			if string(m.St.Output) != string(ref.Output) {
				t.Errorf("output %q != sequential %q", m.St.Output, ref.Output)
			}
			if m.test.Retired() != ref.Instret {
				t.Errorf("instret %d != sequential %d", m.test.Retired(), ref.Instret)
			}
		})
	}
}

// TestRandomProgramsFeasibleMachine repeats the property on the feasible
// configuration (FU classes, real caches, next-LI penalty).
func TestRandomProgramsFeasibleMachine(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := 100; seed < 100+seeds; seed++ {
		src := progen.Generate(progen.DefaultParams(int64(seed)))
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			m := runDTSVLIW(t, src, FeasibleConfig())
			if !m.St.Halted {
				t.Fatal("did not halt")
			}
		})
	}
}

// TestRandomMemoryHeavy stresses the aliasing machinery: memory-only
// programs with colliding addresses on small geometries where stores and
// loads are reordered aggressively.
func TestRandomMemoryHeavy(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		p := progen.Params{Seed: int64(1000 + seed), Items: 60, MaxDepth: 3, Mem: true}
		src := progen.Generate(p)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			m := runDTSVLIW(t, src, IdealConfig(6, 6))
			if !m.St.Halted {
				t.Fatal("did not halt")
			}
		})
	}
}

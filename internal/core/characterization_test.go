package core

import (
	"testing"

	"dtsvliw/internal/workloads"
)

// TestWorkloadCharacterization pins the substitution claims of DESIGN.md
// §5: each synthetic analogue must exhibit the trace signature of its
// SPECint95 counterpart, because the paper's results depend on those
// signatures (not on the programs' outputs).
func TestWorkloadCharacterization(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization sweep is long")
	}
	type profile struct {
		name     string
		ipc      float64
		exitRate float64 // trace exits per block entry
		vliwFrac float64
		blocks   uint64
		loadFrac float64 // loads per instruction of the sequential trace
	}
	profiles := map[string]profile{}
	for _, w := range workloads.All() {
		cfg := IdealConfig(8, 8)
		cfg.MaxInstrs = 250_000
		cfg.MaxCycles = 1 << 40
		st, err := w.NewState(cfg.NWin)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMachine(cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		s := m.Stats
		profiles[w.Name] = profile{
			name:     w.Name,
			ipc:      s.IPC(),
			exitRate: float64(s.Engine.TraceExits) / float64(s.Engine.BlocksEntered),
			vliwFrac: s.VLIWCycleFraction(),
			blocks:   s.BlocksSaved,
			loadFrac: loadsPerInstr(t, w, cfg.NWin, s.Retired),
		}
	}

	// ijpeg: the dense loop gives the highest ILP of the suite.
	for _, p := range profiles {
		if p.name != "ijpeg" && p.ipc >= profiles["ijpeg"].ipc {
			t.Errorf("ijpeg should lead ILP; %s has %.2f >= %.2f", p.name, p.ipc, profiles["ijpeg"].ipc)
		}
	}
	// gcc: the handler-dispatch footprint schedules by far the most
	// distinct blocks (real gcc's large code working set).
	for _, p := range profiles {
		if p.name != "gcc" && p.name != "xlisp" && p.blocks >= profiles["gcc"].blocks {
			t.Errorf("gcc should have the largest block working set; %s has %d >= %d",
				p.name, p.blocks, profiles["gcc"].blocks)
		}
	}
	// vortex: pointer chasing is the most load-intensive trace.
	for _, p := range profiles {
		if p.name != "vortex" && p.loadFrac >= profiles["vortex"].loadFrac {
			t.Errorf("vortex should be the most load-intensive; %s has %.2f >= %.2f",
				p.name, p.loadFrac, profiles["vortex"].loadFrac)
		}
	}
	// Every workload spends most cycles in the VLIW engine at steady
	// state (paper Table 3: 65%-99.97%).
	for _, p := range profiles {
		if p.vliwFrac < 0.5 {
			t.Errorf("%s: VLIW fraction %.2f suspiciously low", p.name, p.vliwFrac)
		}
	}
	// Branch-unpredictable analogues (go, xlisp) must exit traces more
	// often than the regular loop (ijpeg).
	for _, name := range []string{"go", "xlisp"} {
		if profiles[name].exitRate <= profiles["ijpeg"].exitRate {
			t.Errorf("%s exit rate %.2f should exceed ijpeg's %.2f",
				name, profiles[name].exitRate, profiles["ijpeg"].exitRate)
		}
	}
}

// loadsPerInstr returns the loads per instruction in the first n
// instructions of w's sequential trace. The trace, not the machine's Data
// Cache accesses, carries the signature: the VLIW Engine also accesses
// the Data Cache for stores and for slots a trace exit or a rollback
// throws away.
func loadsPerInstr(t *testing.T, w *workloads.Workload, nwin int, n uint64) float64 {
	t.Helper()
	st, err := w.NewState(nwin)
	if err != nil {
		t.Fatal(err)
	}
	var loads, steps uint64
	for ; steps < n && !st.Halted; steps++ {
		in, _, err := st.StepOutcome()
		if err != nil {
			t.Fatal(err)
		}
		if in.IsLoad() {
			loads++
		}
	}
	return float64(loads) / float64(steps)
}

package oracle

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dtsvliw/internal/core"
	"dtsvliw/internal/workloads"
)

// TestStrategyTable pins core's strategy table: the names it lists,
// that each one builds a machine, that the empty name is FCFS, and that
// the conformance matrix below covers every strategy, so a new table
// entry without conformance coverage fails here first.
func TestStrategyTable(t *testing.T) {
	got := core.StrategyNames()
	if want := []string{"fcfs", "one-per-block", "optimal"}; !slices.Equal(got, want) {
		t.Fatalf("strategies %v, want %v", got, want)
	}
	w := workloads.All()[0]
	run := func(name string) core.Stats {
		t.Helper()
		cfg := core.IdealConfig(8, 8)
		cfg.SchedStrategy = name
		cfg.MaxInstrs = 20_000
		if err := cfg.Validate(); err != nil {
			t.Fatalf("strategy %q: %v", name, err)
		}
		st, err := w.NewState(cfg.NWin)
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.NewMachine(cfg, st)
		if err != nil {
			t.Fatalf("strategy %q: %v", name, err)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("strategy %q on %s: %v", name, w.Name, err)
		}
		return m.Stats
	}
	for _, name := range got {
		run(name)
	}
	if def, fcfs := run(""), run("fcfs"); !reflect.DeepEqual(def, fcfs) {
		t.Errorf("empty strategy name ran %s to %+v, fcfs to %+v", w.Name, def, fcfs)
	}
	covered := map[string]bool{"fcfs": true} // DefaultConfigs all run fcfs
	for _, nc := range StrategyConfigs() {
		covered[nc.Cfg.SchedStrategy] = true
	}
	for _, name := range got {
		if !covered[name] {
			t.Errorf("strategy %q has no StrategyConfigs entry: not covered by the conformance suite", name)
		}
	}
}

// TestStrategyConformance drives every strategy configuration through the
// differential oracle with block verification: generated programs run on
// the machine in lockstep against the sequential reference, and every
// block the scheduler saves must pass the static block-legality checker.
// Zero divergences and zero verifier violations are required — for the
// optimal strategy this proves the repacked schedules are legal and
// executable end-to-end, not just internally consistent.
func TestStrategyConformance(t *testing.T) {
	n := 24
	if testing.Short() {
		n = 8
	}
	for _, nc := range StrategyConfigs() {
		nc := nc
		t.Run(nc.Name, func(t *testing.T) {
			t.Parallel()
			rep := Sweep(SweepOptions{
				N: n, Seed: 7000,
				Configs:      []NamedConfig{nc},
				MaxFail:      3,
				VerifyBlocks: true,
			})
			for i := range rep.Failures {
				t.Errorf("%s", rep.Failures[i].Render())
			}
			if rep.Instret == 0 {
				t.Errorf("conformance sweep executed no instructions")
			}
		})
	}
}

// TestStrategyWorkloadMatrix runs every strategy in core's table over the full
// workload suite with the lockstep test machine and block verification
// enabled. Each workload validates its own final state, so a strategy
// that corrupts execution fails three independent checks: blockcheck,
// the lockstep comparison, and the workload's Go reference model.
func TestStrategyWorkloadMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload matrix: run without -short")
	}
	for _, name := range core.StrategyNames() {
		for _, w := range workloads.All() {
			name, w := name, w
			t.Run(fmt.Sprintf("%s/%s", name, w.Name), func(t *testing.T) {
				t.Parallel()
				cfg := core.IdealConfig(8, 8)
				cfg.SchedStrategy = name
				cfg.VerifyBlocks = true
				cfg.TestMode = true
				cfg.MaxInstrs = 150_000
				st, err := w.NewState(cfg.NWin)
				if err != nil {
					t.Fatal(err)
				}
				m, err := core.NewMachine(cfg, st)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Run(); err != nil {
					t.Fatalf("strategy %s on %s: %v", name, w.Name, err)
				}
				if st.Halted {
					if err := w.Validate(st); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// TestUnknownStrategyFails pins the failure mode of a misspelt strategy
// name: NewMachine must reject it with the table's names in the error.
func TestUnknownStrategyFails(t *testing.T) {
	cfg := core.IdealConfig(8, 8)
	cfg.SchedStrategy = "optimist"
	st, err := workloads.All()[0].NewState(cfg.NWin)
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.NewMachine(cfg, st)
	if err == nil {
		t.Fatal("NewMachine accepted unknown strategy name")
	}
	for _, name := range core.StrategyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list strategy %q", err, name)
		}
	}
}

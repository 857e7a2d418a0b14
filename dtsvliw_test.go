package dtsvliw

import (
	"strings"
	"testing"
)

// TestQuickstart exercises the README quick-start path end to end.
func TestQuickstart(t *testing.T) {
	cfg := Ideal(8, 8)
	cfg.TestMode = true
	sys, err := NewSystemFromWorkload(cfg, "ijpeg")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if !sys.Halted() {
		t.Fatal("did not halt")
	}
	st := sys.Stats()
	if ipc := st.IPC(); ipc < 2 {
		t.Errorf("ijpeg 8x8 IPC = %.2f, want > 2", ipc)
	}
}

// TestAssembleAndRun runs a user-supplied program through the public API.
func TestAssembleAndRun(t *testing.T) {
	p, err := Assemble(`
	.text 0x1000
start:
	mov 72, %o0
	ta 1
	mov 105, %o0
	ta 1
	mov 0, %o0
	ta 0
`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Ideal(4, 4)
	cfg.TestMode = true
	sys, err := NewSystem(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got := string(sys.Output()); got != "Hi" {
		t.Fatalf("output %q, want Hi", got)
	}
}

// TestWorkloadRegistry checks the catalogue is complete.
func TestWorkloadRegistry(t *testing.T) {
	names := WorkloadNames()
	if len(names) != 8 {
		t.Fatalf("want 8 workloads, got %v", names)
	}
	for _, n := range names {
		if _, err := WorkloadProgram(n); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if _, err := WorkloadProgram("nope"); err == nil {
		t.Error("expected error for unknown workload")
	}
}

// TestFeasibleSystem validates the feasible configuration via the facade.
func TestFeasibleSystem(t *testing.T) {
	cfg := Feasible()
	cfg.TestMode = true
	cfg.MaxInstrs = 100_000
	sys, err := NewSystemFromWorkload(cfg, "compress")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRunDIF checks the DIF baseline is reachable from the facade.
func TestRunDIF(t *testing.T) {
	s, err := RunDIF("vortex", 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if s.IPC() <= 0 {
		t.Fatalf("DIF IPC = %v", s.IPC())
	}
}

// TestRunExperimentTable2 regenerates the cheapest experiment.
func TestRunExperimentTable2(t *testing.T) {
	tab, err := RunExperiment("table2", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("table2 rows = %d", len(tab.Rows))
	}
	if !strings.Contains(tab.String(), "queens 7") {
		t.Error("table2 missing the paper's xlisp input")
	}
	if !strings.Contains(tab.CSV(), "benchmark,") {
		t.Error("CSV header missing")
	}
}

// TestBadConfigs exercises facade validation.
func TestBadConfigs(t *testing.T) {
	if _, err := NewSystemFromWorkload(Config{}, "gcc"); err == nil {
		t.Error("zero config should fail validation")
	}
	cfg := Ideal(2, 2)
	cfg.FUs = []FU{"bogus", FUInt}
	if _, err := NewSystemFromWorkload(cfg, "gcc"); err == nil {
		t.Error("bogus FU class should fail")
	}
	cfg = Feasible()
	cfg.NextLIMissPenalty = -1
	if _, err := NewSystemFromWorkload(cfg, "gcc"); err == nil {
		t.Error("negative next-LI miss penalty should fail validation")
	}
	if _, err := NewSystemFromWorkload(Ideal(64, 4096), "gcc"); err == nil {
		t.Error("a geometry too large for the lowered form should fail validation")
	}
	if _, err := RunExperiment("fig99", 0); err == nil {
		t.Error("unknown experiment should fail")
	}
}

// TestExtensionKnobs drives the paper-§5 extensions through the facade.
func TestExtensionKnobs(t *testing.T) {
	cfg := Ideal(6, 6)
	cfg.StoreListScheme = true
	cfg.ExitPrediction = true
	cfg.LoadLatency = 2
	cfg.FPLatency = 2
	cfg.TestMode = true
	cfg.MaxInstrs = 60_000
	sys, err := NewSystemFromWorkload(cfg, "vortex")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	s := sys.Stats()
	if s.Cycles == 0 {
		t.Fatal("no cycles")
	}
}

// TestOnBlockSaved observes scheduled blocks through the facade.
func TestOnBlockSaved(t *testing.T) {
	cfg := Ideal(4, 4)
	cfg.MaxInstrs = 20_000
	sys, err := NewSystemFromWorkload(cfg, "xlisp")
	if err != nil {
		t.Fatal(err)
	}
	var dumps int
	sys.OnBlockSaved(func(d string) {
		if d == "" {
			t.Error("empty dump")
		}
		dumps++
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if dumps == 0 {
		t.Fatal("no blocks observed")
	}
}

package experiments

import (
	"runtime"
	"strings"
	"testing"
)

// sweepRow builds a SweepEntry for gate tests.
func sweepRow(config string, workers int, pps float64) SweepEntry {
	return SweepEntry{Config: config, Workers: workers, Instrs: 1000, ProgramsPerSec: pps}
}

func machineDelta(name string, nsPct float64) BenchDelta {
	return BenchDelta{Name: name, Config: "ideal-4x4", OldNs: 100, NewNs: 100 + nsPct, NsPct: nsPct}
}

// TestGateBenchDiff: the per-row gate fails on any single row past the
// threshold, names it, and passes rows at or under it.
func TestGateBenchDiff(t *testing.T) {
	ok := []BenchDelta{machineDelta("a", 4.9), machineDelta("b", -20), machineDelta("c", 5)}
	if err := GateBenchDiff(ok, 5); err != nil {
		t.Fatalf("gate failed rows within the threshold: %v", err)
	}
	bad := append(ok, machineDelta("slow", 50))
	err := GateBenchDiff(bad, 5)
	if err == nil {
		t.Fatal("gate passed a 50%% ns/instr regression")
	}
	if !strings.Contains(err.Error(), "machine slow/ideal-4x4") {
		t.Fatalf("gate error %q does not name the regressed row", err)
	}
	if !strings.Contains(FormatBenchDiff(bad), "machine slow/ideal-4x4") {
		t.Fatal("formatted diff does not list the regressed row")
	}
}

// TestGateBenchMean: the mean gate averages across machine rows — one
// noisy row past the threshold passes as long as the mean stays under,
// and a uniform shift fails even though every row is individually small.
func TestGateBenchMean(t *testing.T) {
	noisy := []BenchDelta{
		machineDelta("a", 3.5), machineDelta("b", -2.8), machineDelta("c", 0.4), machineDelta("d", -0.3),
	}
	if err := GateBenchMean(noisy, 2); err != nil {
		t.Fatalf("mean gate failed on symmetric noise: %v", err)
	}
	uniform := []BenchDelta{machineDelta("a", 2.5), machineDelta("b", 2.2), machineDelta("c", 2.4)}
	if err := GateBenchMean(uniform, 2); err == nil {
		t.Fatal("mean gate passed a uniform +2.4%% shift")
	}
	if err := GateBenchMean(nil, 2); err == nil {
		t.Fatal("mean gate passed with no machine rows")
	}
}

// TestGateSweepEntries: the in-process throughput contract — pooled must
// beat noreuse; the parallel clause depends on the host's CPU count.
func TestGateSweepEntries(t *testing.T) {
	ok := []SweepEntry{
		sweepRow("serial-noreuse", 1, 500),
		sweepRow("serial-pooled", 1, 600),
		sweepRow("parallel", 1, 600),
	}
	if err := GateSweepEntries(ok); err != nil {
		t.Fatalf("healthy entries failed the gate: %v", err)
	}

	slowPool := []SweepEntry{
		sweepRow("serial-noreuse", 1, 500),
		sweepRow("serial-pooled", 1, 510), // < 1.05x
		sweepRow("parallel", 1, 510),
	}
	if err := GateSweepEntries(slowPool); err == nil {
		t.Fatal("gate passed a pooled path slower than its contract")
	}

	if runtime.NumCPU() >= 2 {
		noScale := []SweepEntry{
			sweepRow("serial-noreuse", 1, 500),
			sweepRow("serial-pooled", 1, 600),
			sweepRow("parallel", 8, 650), // < 1.3x pooled
		}
		if err := GateSweepEntries(noScale); err == nil {
			t.Fatal("gate passed a parallel path that does not scale")
		}
	}

	if err := GateSweepEntries(nil); err == nil {
		t.Fatal("gate passed with no sweep rows")
	}
}

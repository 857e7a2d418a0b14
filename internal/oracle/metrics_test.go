package oracle

import (
	"bytes"
	"sync"
	"testing"

	"dtsvliw/internal/metrics"
	"dtsvliw/internal/sched"
)

// TestSweepMetricsReconcile: at quiescence the sweep's registry counters
// reconcile exactly with the final Report — including across layers: on a
// clean machine-vs-reference sweep every case runs exactly one machine,
// so the core publisher's cycle counter equals the sweep's.
func TestSweepMetricsReconcile(t *testing.T) {
	reg := metrics.NewRegistry()
	rep := Sweep(SweepOptions{N: 12, Seed: 7, Workers: 4, Metrics: reg})
	if len(rep.Failures) != 0 {
		t.Fatalf("expected a clean sweep, got %d failures", len(rep.Failures))
	}
	snap := reg.Snapshot()

	get := func(name string) uint64 {
		t.Helper()
		v, ok := snap.Value(name, "")
		if !ok {
			t.Fatalf("%s: not in snapshot", name)
		}
		return uint64(v)
	}
	if got := get("dtsvliw_sweep_programs_total"); got != uint64(rep.Runs) {
		t.Errorf("programs = %d, want %d", got, rep.Runs)
	}
	if got := get("dtsvliw_sweep_divergences_total"); got != 0 {
		t.Errorf("divergences = %d, want 0", got)
	}
	if got := get("dtsvliw_sweep_instret_total"); got != rep.Instret {
		t.Errorf("instret = %d, want %d", got, rep.Instret)
	}
	if got := get("dtsvliw_sweep_cycles_total"); got != rep.Cycles {
		t.Errorf("cycles = %d, want %d", got, rep.Cycles)
	}

	// Cross-layer: the machines the sweep ran published into the same
	// registry, and each successful case simulated exactly one machine to
	// completion, so the aggregates agree between layers.
	if mc := get("dtsvliw_machine_cycles_total"); mc != rep.Cycles {
		t.Errorf("machine cycles = %d, sweep cycles = %d: layers disagree", mc, rep.Cycles)
	}
	if mi := get("dtsvliw_machine_instrs_total"); mi != rep.Instret {
		t.Errorf("machine instrs = %d, sweep instret = %d: layers disagree", mi, rep.Instret)
	}

	// Worker attribution is scheduling-dependent per series, but every
	// case ran exactly once, so the series sum to the program counter.
	var workerSum int64
	for _, f := range snap.Families {
		if f.Name == "dtsvliw_sweep_worker_programs_total" {
			for _, s := range f.Series {
				workerSum += s.Value
			}
		}
	}
	if workerSum != int64(rep.Runs) {
		t.Errorf("worker programs sum = %d, want %d", workerSum, rep.Runs)
	}

	// Occupancy gauges have drained.
	for _, g := range []string{"dtsvliw_sweeps_active", "dtsvliw_sweep_busy_workers"} {
		if v, _ := snap.Value(g, ""); v != 0 {
			t.Errorf("%s = %d after sweep, want 0", g, v)
		}
	}
}

// TestSweepMetricsDivergenceCount: injected faults surface in the
// divergence counter exactly as in the report.
func TestSweepMetricsDivergenceCount(t *testing.T) {
	reg := metrics.NewRegistry()
	faulty := DefaultConfigs()[:1]
	faulty[0].Cfg.Fault = sched.FaultDropCopy
	rep := Sweep(SweepOptions{N: 6, Seed: 400, Configs: faulty, MaxFail: 4,
		ShrinkEvals: 40, Workers: 1, Metrics: reg})
	if len(rep.Failures) == 0 {
		t.Skip("fault injection produced no divergence at this seed")
	}
	snap := reg.Snapshot()
	if v, _ := snap.Value("dtsvliw_sweep_divergences_total", ""); v != int64(len(rep.Failures)) {
		t.Errorf("divergences = %d, want %d", v, len(rep.Failures))
	}
}

// TestSweepMetricsSerialDeterminism: two identical serial sweeps into
// fresh registries dump byte-identically — every series, including pool
// and worker attribution, is deterministic at one worker.
func TestSweepMetricsSerialDeterminism(t *testing.T) {
	var dumps [2][]byte
	for i := range dumps {
		reg := metrics.NewRegistry()
		Sweep(SweepOptions{N: 8, Seed: 7, Workers: 1, Metrics: reg})
		var b bytes.Buffer
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		dumps[i] = b.Bytes()
	}
	if !bytes.Equal(dumps[0], dumps[1]) {
		t.Fatal("identical serial sweeps produced different metric dumps")
	}
}

// TestSweepMetricsConcurrentScrape scrapes the registry continuously
// while a parallel sweep is publishing into it — the -race guard for the
// live-introspection path. Every intermediate dump must already be valid
// Prometheus text.
func TestSweepMetricsConcurrentScrape(t *testing.T) {
	reg := metrics.NewRegistry()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var b bytes.Buffer
			if err := reg.WritePrometheus(&b); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			if err := metrics.LintText(&b); err != nil {
				t.Errorf("mid-sweep dump invalid: %v", err)
				return
			}
		}
	}()
	rep := Sweep(SweepOptions{N: 10, Seed: 7, Workers: 4, Metrics: reg})
	close(done)
	wg.Wait()
	if v, _ := reg.Snapshot().Value("dtsvliw_sweep_programs_total", ""); v != int64(rep.Runs) {
		t.Errorf("final programs = %d, want %d", v, rep.Runs)
	}
}

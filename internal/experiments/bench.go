package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"dtsvliw/internal/core"
	"dtsvliw/internal/metrics"
	"dtsvliw/internal/oracle"
	"dtsvliw/internal/workloads"
)

// This file holds the in-process A/B perf gates that need two variants
// measured side by side in one process: the oracle sweep-throughput
// contract (serial-noreuse vs serial-pooled vs parallel) and the
// telemetry and metrics overhead bounds (instrumentation off vs on).
// End-to-end performance and its trajectory are the repository benchmark
// (BENCHMARK.json, bench/).

// measure runs f once and reports wall time and heap allocation. Runs are
// serial and preceded by a GC so ReadMemStats deltas attribute to f alone.
func measure(f func() error) (elapsed time.Duration, allocs, bytes uint64, err error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now() //determinism:allow timing is this function's purpose; the gate compares allocs, not wall time
	err = f()
	elapsed = time.Since(start) //determinism:allow see above
	runtime.ReadMemStats(&after)
	return elapsed, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, err
}

// benchMachineConfigs is the fixed configuration matrix of the machine
// rows: the feasible machine (Table 3) and the ideal 8x8 geometry (the
// Figure 5/6/7 workhorse).
func benchMachineConfigs() []struct {
	label string
	cfg   core.Config
} {
	return []struct {
		label string
		cfg   core.Config
	}{
		{"feasible", core.FeasibleConfig()},
		{"ideal-8x8", core.IdealConfig(8, 8)},
	}
}

// benchTelemetryReps is the interleaved rep count of
// BenchTelemetryOverhead. A full workload run measures ~50ms, short
// enough that one scheduler preemption skews a single-shot number by tens
// of percent; min-of-N is the standard noise-robust estimator (the
// simulation is deterministic, so the fastest run is the least-disturbed
// one).
const benchTelemetryReps = 3

// benchMetricsReps is the interleaved rep count of BenchMetricsOverhead,
// higher than benchTelemetryReps because its gate threshold (2%) sits
// below the min-of-3 noise floor of the short workload runs.
const benchMetricsReps = 8

// SweepEntry is one measured oracle sweep-throughput row.
type SweepEntry struct {
	Config  string // "serial-noreuse", "serial-pooled" or "parallel"
	Workers int
	Instrs  uint64 // simulated instructions measured over

	NsPerInstr     float64
	AllocsPerInstr float64
	ProgramsPerSec float64
}

// benchSweepN is the programs per measured sweep: large enough that the
// pool reaches steady state and per-program noise averages out, small
// enough for the CI smoke job.
const benchSweepN = 400

const benchSweepReps = 2

// benchSweepVariants is the fixed sweep-throughput matrix: the serial
// rebuild-everything baseline, the serial pooled path (context reuse in
// isolation), and the pooled path at one worker per CPU. On a single-CPU
// host the parallel row still exercises the fan-out machinery at one
// worker.
func benchSweepVariants() []struct {
	label   string
	workers int
	noReuse bool
} {
	return []struct {
		label   string
		workers int
		noReuse bool
	}{
		{"serial-noreuse", 1, true},
		{"serial-pooled", 1, false},
		{"parallel", runtime.GOMAXPROCS(0), false},
	}
}

// BenchSweep measures the oracle co-simulation throughput rows
// (programs/sec over a fixed conformance sweep) — the tentpole metric of
// the pooled-context work. Any divergence during measurement is a hard
// error: a perf run must never paper over a conformance failure.
func BenchSweep(o Options) ([]SweepEntry, error) {
	var out []SweepEntry
	for _, v := range benchSweepVariants() {
		opts := oracle.SweepOptions{
			N: benchSweepN, Seed: 1,
			Workers: v.workers, NoReuse: v.noReuse,
		}
		var best SweepEntry
		for rep := 0; rep < benchSweepReps; rep++ {
			var sr *oracle.Report
			elapsed, allocs, _, err := measure(func() error {
				sr = oracle.Sweep(opts)
				if len(sr.Failures) > 0 {
					return fmt.Errorf("%d divergences (first: %s)",
						len(sr.Failures), sr.Failures[0].Render())
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("bench sweep %s: %w", v.label, err)
			}
			e := SweepEntry{
				Config: v.label, Workers: v.workers, Instrs: sr.Instret,
				NsPerInstr:     float64(elapsed.Nanoseconds()) / float64(sr.Instret),
				AllocsPerInstr: float64(allocs) / float64(sr.Instret),
				ProgramsPerSec: float64(sr.Runs) / elapsed.Seconds(),
			}
			if rep == 0 || e.ProgramsPerSec > best.ProgramsPerSec {
				best = e
			}
		}
		out = append(out, best)
		o.note("bench sweep %s (%d workers): %.0f programs/sec %.0f ns/instr",
			v.label, best.Workers, best.ProgramsPerSec, best.NsPerInstr)
	}
	return out, nil
}

// GateSweepEntries enforces the co-simulation throughput contract within
// one measurement, so the gate is self-relative and holds on any host:
//
//   - context reuse must pay for itself: serial-pooled >= 1.05x the
//     serial-noreuse programs/sec (the measured serial reuse win is
//     ~1.1x; most of the historical 10x came from fixes shared by both
//     paths — see DESIGN.md §15);
//   - the parallel fan-out must scale when there are CPUs to scale onto:
//     with >= 2 workers on >= 2 CPUs, parallel >= 1.3x serial-pooled.
//     On a single-CPU host the scaling clause is vacuous and only the
//     no-regression bound (parallel >= 0.9x pooled) applies.
func GateSweepEntries(entries []SweepEntry) error {
	rows := make(map[string]SweepEntry)
	for _, e := range entries {
		rows[e.Config] = e
	}
	noreuse, okN := rows["serial-noreuse"]
	pooled, okP := rows["serial-pooled"]
	par, okPar := rows["parallel"]
	if !okN || !okP || !okPar {
		return fmt.Errorf("sweep gate: missing sweep rows (have %d)", len(rows))
	}
	var bad []string
	if pooled.ProgramsPerSec < 1.05*noreuse.ProgramsPerSec {
		bad = append(bad, fmt.Sprintf(
			"pooled %.0f p/s < 1.05x noreuse %.0f p/s", pooled.ProgramsPerSec, noreuse.ProgramsPerSec))
	}
	if par.Workers >= 2 && runtime.NumCPU() >= 2 {
		if par.ProgramsPerSec < 1.3*pooled.ProgramsPerSec {
			bad = append(bad, fmt.Sprintf(
				"parallel (%d workers) %.0f p/s < 1.3x pooled %.0f p/s",
				par.Workers, par.ProgramsPerSec, pooled.ProgramsPerSec))
		}
	} else if par.ProgramsPerSec < 0.9*pooled.ProgramsPerSec {
		bad = append(bad, fmt.Sprintf(
			"parallel (%d workers, 1 CPU) %.0f p/s < 0.9x pooled %.0f p/s",
			par.Workers, par.ProgramsPerSec, pooled.ProgramsPerSec))
	}
	if len(bad) > 0 {
		return fmt.Errorf("sweep gate failed:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// BenchTelemetryOverhead measures every machine row with the telemetry
// collector detached ("old") and attached ("new") and returns one delta
// per row, for the ≤10% enabled-overhead gate.
func BenchTelemetryOverhead(o Options) ([]BenchDelta, error) {
	return benchOverhead(o, "telemetry", benchTelemetryReps, func(on bool) Options {
		oo := o
		oo.Telemetry = on
		return oo
	})
}

// BenchMetricsOverhead measures every machine row with the always-on
// metrics publisher disabled (metrics.SetEnabled(false): machines are
// built without a publisher, the "compiled out" baseline) and enabled
// against the default registry, and returns one delta per row for the
// ≤2% metrics-overhead gate.
func BenchMetricsOverhead(o Options) ([]BenchDelta, error) {
	was := metrics.Enabled()
	defer metrics.SetEnabled(was)
	return benchOverhead(o, "metrics", benchMetricsReps, func(on bool) Options {
		metrics.SetEnabled(on)
		return o
	})
}

// benchOverhead measures every machine row reps times per side — side
// off and side on, as prepared by set — and keeps each side's fastest
// rep. The off/on reps are interleaved pair by pair on the same runner,
// so slow host drift (thermal throttling, a noisy neighbour arriving
// mid-measurement) hits both sides near-equally; a sequential
// off-then-on comparison cannot guarantee that.
func benchOverhead(o Options, what string, reps int, set func(on bool) Options) ([]BenchDelta, error) {
	var out []BenchDelta
	for _, w := range workloads.All() {
		for _, mc := range benchMachineConfigs() {
			var ns, al [2]float64 // index 0 = off, 1 = on
			for rep := 0; rep < reps; rep++ {
				// Alternate which side runs first each rep: the second run of
				// a pair starts with warmer caches and branch predictors, and
				// always giving that position to one side biases the
				// comparison by more than the effect being measured.
				order := [2]int{0, 1}
				if rep%2 == 1 {
					order = [2]int{1, 0}
				}
				for _, side := range order {
					oo := set(side == 1)
					var m *core.Machine
					e, a, _, err := measure(func() error {
						var err error
						m, err = RunOne(w, mc.cfg, oo)
						return err
					})
					if err != nil {
						return nil, fmt.Errorf("bench %s %s/%s: %w", what, w.Name, mc.label, err)
					}
					n := m.Stats.Retired
					if n == 0 {
						return nil, fmt.Errorf("bench %s %s/%s: no instructions retired", what, w.Name, mc.label)
					}
					if v := float64(e.Nanoseconds()) / float64(n); rep == 0 || v < ns[side] {
						ns[side] = v
					}
					if v := float64(a) / float64(n); rep == 0 || v < al[side] {
						al[side] = v
					}
				}
			}
			out = append(out, BenchDelta{
				Name: w.Name, Config: mc.label,
				OldNs: ns[0], NewNs: ns[1], OldAllocs: al[0], NewAllocs: al[1],
				NsPct: pct(ns[0], ns[1]), AllocsPct: pct(al[0], al[1]),
			})
			o.note("bench %s %s/%s: %.0f -> %.0f ns/instr (%+.1f%%)",
				what, w.Name, mc.label, ns[0], ns[1], pct(ns[0], ns[1]))
		}
	}
	return out, nil
}

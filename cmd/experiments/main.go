// Command experiments regenerates the paper's tables and figures on the
// reproduced DTSVLIW. With no flags it runs every experiment but the
// schedgap and staticbound studies, in the paper's order, and prints the
// result tables, fanning independent simulations out over all CPUs (-par
// 1 forces serial mode; output is identical either way; a negative -par
// is a usage error).
//
// Usage:
//
//	experiments [-run fig5,table3,schedgap] [-max N] [-csv] [-v] [-par N]
//	            [-profile] [-profile-top N]
//	            [-sweep-gate] [-bench-overhead-gate PCT] [-bench-metrics-gate PCT]
//	            [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// -run schedgap is the FCFS-vs-optimal scheduling-gap study (DESIGN.md
// §14) over the 4x4, 8x8 and 16x16 geometries, with every repacked block
// verified at save time; -csv emits it machine-readable.
//
// The three gates are in-process A/B measurements (each skips -run).
// -sweep-gate measures the oracle sweep-throughput rows (programs/sec,
// serial-noreuse vs serial-pooled vs parallel) and exits nonzero when
// the pooled or parallel paths fall below their speedup contract.
// -bench-overhead-gate measures the machine rows telemetry-off and
// telemetry-on with interleaved reps (robust to host drift) and exits
// nonzero when enabling telemetry costs any row more than PCT percent
// ns/instr. -bench-metrics-gate does the same for the always-on metrics
// publisher, gating on the mean overhead across rows. End-to-end
// performance is measured by the repository benchmark (bench/).
//
// -profile prints full per-workload hot-block and histogram telemetry
// dumps after the requested experiment tables (the "profile" experiment
// prints the one-line-per-workload summary table).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"dtsvliw/internal/experiments"
	"dtsvliw/internal/introspect"
	"dtsvliw/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, runs the requested experiments or
// gate, and returns the exit status (0 clean, 1 on a failed run or gate,
// 2 on a usage error).
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	fs.SetOutput(stderr)
	runList := fs.String("run", strings.Join(experiments.DefaultNames(), ","),
		"comma-separated experiments: "+strings.Join(experiments.Names(), ", "))
	max := fs.Uint64("max", 0, "cap sequential instructions per run (0 = to completion)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	verbose := fs.Bool("v", false, "print per-run progress")
	test := fs.Bool("testmode", false, "run with the lockstep test machine (slow)")
	workers := fs.Int("par", 0, "simulation workers (0 = one per CPU, 1 = serial)")
	benchOverheadGate := fs.Float64("bench-overhead-gate", 0,
		"measure machine rows telemetry-off vs -on with interleaved reps; fail past this percent ns/instr overhead (skips -run)")
	profile := fs.Bool("profile", false,
		"print per-workload telemetry profile/histogram dumps after the tables")
	profileTop := fs.Int("profile-top", 5, "with -profile: hot blocks listed per workload")
	sweepGate := fs.Bool("sweep-gate", false,
		"measure the oracle sweep-throughput rows and enforce the pooled/parallel speedup contract (skips -run)")
	benchMetricsGate := fs.Float64("bench-metrics-gate", 0,
		"measure machine rows metrics-off vs -on with interleaved reps; fail past this percent ns/instr overhead (skips -run)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := fs.String("memprofile", "", "write a heap profile to this path on exit")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /statusz and /debug/pprof on this address for the duration of the run")
	fs.Parse(args) // ExitOnError: -h exits 0, a malformed flag exits 2
	if *workers < 0 {
		fmt.Fprintf(stderr, "experiments: -par must be >= 0 (0 = one per CPU), got %d\n", *workers)
		return 2
	}

	if *metricsAddr != "" {
		srv, err := introspect.Serve(*metricsAddr, introspect.Options{
			Program: "experiments",
			Args:    args,
		})
		if err != nil {
			fmt.Fprintf(stderr, "metrics-addr: %v\n", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "experiments: introspection on http://%s\n", srv.Addr())
	}

	if *memProfile != "" {
		// Written on every return, failures included, after the CPU
		// profile stops.
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
				code = 1
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
				code = 1
			}
			f.Close()
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	o := experiments.Options{MaxInstrs: *max, TestMode: *test, Workers: *workers}
	if *verbose {
		o.Progress = func(s string) { fmt.Fprintln(stderr, s) }
	}

	if *sweepGate {
		entries, err := experiments.BenchSweep(o)
		if err != nil {
			fmt.Fprintf(stderr, "sweep-gate: %v\n", err)
			return 1
		}
		for _, e := range entries {
			fmt.Fprintf(stdout, "sweep %-16s %d workers  %8.0f programs/sec  %6.1f ns/instr  %6.3f allocs/instr\n",
				e.Config, e.Workers, e.ProgramsPerSec, e.NsPerInstr, e.AllocsPerInstr)
		}
		if err := experiments.GateSweepEntries(entries); err != nil {
			fmt.Fprintf(stderr, "%v\n", err)
			return 1
		}
		fmt.Fprintln(stderr, "sweep gate passed (pooled >= 1.05x noreuse; parallel scaling checked when CPUs allow)")
		return 0
	}

	if *benchMetricsGate > 0 {
		deltas, err := experiments.BenchMetricsOverhead(o)
		if err != nil {
			fmt.Fprintf(stderr, "bench-metrics-gate: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, experiments.FormatBenchDiff(deltas))
		// Gate on the mean across rows, not per row: the publisher's cost is
		// uniform, so a real regression moves every row, while single rows
		// bounce past 2% on run-to-run noise alone.
		if err := experiments.GateBenchMean(deltas, *benchMetricsGate); err != nil {
			fmt.Fprintf(stderr, "%v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "metrics overhead gate passed (threshold %+.1f%% mean ns/instr on machine entries)\n",
			*benchMetricsGate)
		return 0
	}

	if *benchOverheadGate > 0 {
		deltas, err := experiments.BenchTelemetryOverhead(o)
		if err != nil {
			fmt.Fprintf(stderr, "bench-overhead-gate: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, experiments.FormatBenchDiff(deltas))
		if err := experiments.GateBenchDiff(deltas, *benchOverheadGate); err != nil {
			fmt.Fprintf(stderr, "%v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "telemetry overhead gate passed (threshold %+.1f%% ns/instr on machine entries)\n",
			*benchOverheadGate)
		return 0
	}

	// Resolve every name before running any, so a typo costs no run.
	names := strings.Split(*runList, ",")
	runners := make([]func(experiments.Options) (*stats.Table, error), len(names))
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
		r, ok := experiments.Lookup(names[i])
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q (have: %s)\n",
				names[i], strings.Join(experiments.Names(), ", "))
			return 2
		}
		runners[i] = r
	}
	for i, r := range runners {
		t, err := r(o)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", names[i], err)
			return 1
		}
		if *csv {
			fmt.Fprint(stdout, t.CSV())
		} else {
			fmt.Fprintln(stdout, t)
		}
	}

	if *profile {
		dump, err := experiments.ProfileDumps(o, *profileTop)
		if err != nil {
			fmt.Fprintf(stderr, "profile: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, dump)
	}
	return 0
}

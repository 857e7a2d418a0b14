// Command experiments regenerates the paper's tables and figures on the
// reproduced DTSVLIW. With no flags it runs every experiment in the
// paper's order and prints the result tables, fanning independent
// simulations out over all CPUs (-par 1 forces serial mode; output is
// identical either way).
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
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"dtsvliw/internal/experiments"
	"dtsvliw/internal/introspect"
)

func main() {
	run := flag.String("run", strings.Join(experiments.Order, ","),
		"comma-separated experiments: "+strings.Join(experiments.Order, ", "))
	max := flag.Uint64("max", 0, "cap sequential instructions per run (0 = to completion)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	verbose := flag.Bool("v", false, "print per-run progress")
	test := flag.Bool("testmode", false, "run with the lockstep test machine (slow)")
	par := flag.Int("par", 0, "simulation workers (0 = one per CPU, 1 = serial)")
	benchOverheadGate := flag.Float64("bench-overhead-gate", 0,
		"measure machine rows telemetry-off vs -on with interleaved reps; fail past this percent ns/instr overhead (skips -run)")
	profile := flag.Bool("profile", false,
		"print per-workload telemetry profile/histogram dumps after the tables")
	profileTop := flag.Int("profile-top", 5, "with -profile: hot blocks listed per workload")
	sweepGate := flag.Bool("sweep-gate", false,
		"measure the oracle sweep-throughput rows and enforce the pooled/parallel speedup contract (skips -run)")
	benchMetricsGate := flag.Float64("bench-metrics-gate", 0,
		"measure machine rows metrics-off vs -on with interleaved reps; fail past this percent ns/instr overhead (skips -run)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile to this path on exit")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /statusz and /debug/pprof on this address for the duration of the run")
	flag.Parse()

	if *metricsAddr != "" {
		srv, err := introspect.Serve(*metricsAddr, introspect.Options{
			Program: "experiments",
			Args:    os.Args[1:],
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics-addr: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "experiments: introspection on http://%s\n", srv.Addr())
	}

	var cpuFile *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		cpuFile = f
	}

	o := experiments.Options{MaxInstrs: *max, TestMode: *test, Workers: *par}
	if *verbose {
		o.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	// exit routes every failure through the deferred profile writers
	// (os.Exit inside main would skip them).
	code := 0
	exit := func(c int) { code = c }
	defer func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
			f.Close()
		}
		os.Exit(code)
	}()

	if *sweepGate {
		entries, err := experiments.BenchSweep(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep-gate: %v\n", err)
			exit(1)
			return
		}
		for _, e := range entries {
			fmt.Printf("sweep %-16s %d workers  %8.0f programs/sec  %6.1f ns/instr  %6.3f allocs/instr\n",
				e.Config, e.Workers, e.ProgramsPerSec, e.NsPerInstr, e.AllocsPerInstr)
		}
		if err := experiments.GateSweepEntries(entries); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			exit(1)
			return
		}
		fmt.Fprintln(os.Stderr, "sweep gate passed (pooled >= 1.05x noreuse; parallel scaling checked when CPUs allow)")
		return
	}

	if *benchMetricsGate > 0 {
		deltas, err := experiments.BenchMetricsOverhead(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-metrics-gate: %v\n", err)
			exit(1)
			return
		}
		fmt.Print(experiments.FormatBenchDiff(deltas))
		// Gate on the mean across rows, not per row: the publisher's cost is
		// uniform, so a real regression moves every row, while single rows
		// bounce past 2% on run-to-run noise alone.
		if err := experiments.GateBenchMean(deltas, *benchMetricsGate); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			exit(1)
			return
		}
		fmt.Fprintf(os.Stderr, "metrics overhead gate passed (threshold %+.1f%% mean ns/instr on machine entries)\n",
			*benchMetricsGate)
		return
	}

	if *benchOverheadGate > 0 {
		deltas, err := experiments.BenchTelemetryOverhead(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-overhead-gate: %v\n", err)
			exit(1)
			return
		}
		fmt.Print(experiments.FormatBenchDiff(deltas))
		if err := experiments.GateBenchDiff(deltas, *benchOverheadGate); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			exit(1)
			return
		}
		fmt.Fprintf(os.Stderr, "telemetry overhead gate passed (threshold %+.1f%% ns/instr on machine entries)\n",
			*benchOverheadGate)
		return
	}

	for _, name := range strings.Split(*run, ",") {
		name = strings.TrimSpace(name)
		r, ok := experiments.Runner[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (have: %s)\n",
				name, strings.Join(experiments.Order, ", "))
			exit(2)
			return
		}
		t, err := r(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			exit(1)
			return
		}
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t)
		}
	}

	if *profile {
		dump, err := experiments.ProfileDumps(o, *profileTop)
		if err != nil {
			fmt.Fprintf(os.Stderr, "profile: %v\n", err)
			exit(1)
			return
		}
		fmt.Print(dump)
	}
}

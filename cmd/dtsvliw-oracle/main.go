// Command dtsvliw-oracle runs the property-based conformance harness: it
// generates seeded random SPARC programs in several hazard shapes, runs
// each both on the full DTSVLIW machine and on an independent sequential
// reference interpreter in lock-step, and reports any divergence as a
// shrunk, replayable reproducer (assembly plus seed). A clean run prints
// a summary and exits 0; any divergence exits 1.
//
// Examples:
//
//	dtsvliw-oracle -n 10000 -seed 1
//	dtsvliw-oracle -n 200 -shapes aliasing,multicycle -configs multicycle
//	dtsvliw-oracle -replay 422 -shapes aliasing -configs multicycle
//
// -par fans the sweep out over worker goroutines with per-worker machine
// pools; the report is byte-identical for every worker count:
//
//	dtsvliw-oracle -n 10000 -par 0
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"dtsvliw/internal/introspect"
	"dtsvliw/internal/oracle"
	"dtsvliw/internal/par"
	"dtsvliw/internal/progen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, sweeps, and returns the exit
// status (0 clean, 1 on a divergence, 2 on a usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dtsvliw-oracle", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		n       = fs.Int("n", 1000, "number of generated programs to check")
		seed    = fs.Int64("seed", 1, "base seed; program i uses seed+i")
		shapes  = fs.String("shapes", "", "comma-separated program shapes (default: all)")
		configs = fs.String("configs", "", "comma-separated machine configurations (default: all)")
		maxFail = fs.Int("maxfail", 1, "stop after this many failures")
		shrink  = fs.Int("shrink", 0, "differential runs each shrink may spend (0 = default)")
		replay  = fs.Int64("replay", -1, "replay a single seed (use with -shapes/-configs to pin the case)")
		verifyB = fs.Bool("verify-blocks", false, "statically verify the legality of every block the scheduler saves (internal/blockcheck)")
		workers = fs.Int("par", 1, "sweep workers (0 = one per CPU; results are identical for any worker count)")
		noReuse = fs.Bool("noreuse", false, "rebuild every machine from scratch instead of reusing pooled contexts (slower; identical results)")
		ff      = fs.Uint64("fast-forward", 0, "execute the first N instructions of every program at interpreter speed before cycle-accurate simulation")
		verbose = fs.Bool("v", false, "print per-run progress")

		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, /statusz and /debug/pprof on this address (e.g. 127.0.0.1:9190)")
		progress    = fs.Bool("progress", true, "print a one-line progress summary to stderr every 2s on long runs")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr,
			"usage: dtsvliw-oracle [flags]\n\nshapes:  %s\nconfigs: %s\n\nflags:\n",
			strings.Join(shapeNames(), ", "), strings.Join(oracle.ConfigNames(), ", "))
		fs.PrintDefaults()
	}
	fs.Parse(args) // ExitOnError: -h exits 0, a malformed flag exits 2
	if *n < 0 {
		fmt.Fprintf(stderr, "dtsvliw-oracle: -n must be >= 0, got %d\n", *n)
		return 2
	}
	if *workers < 0 {
		fmt.Fprintf(stderr, "dtsvliw-oracle: -par must be >= 0 (0 = one per CPU), got %d\n", *workers)
		return 2
	}
	if *maxFail < 1 {
		fmt.Fprintf(stderr, "dtsvliw-oracle: -maxfail must be >= 1, got %d\n", *maxFail)
		return 2
	}
	if *shrink < 0 {
		fmt.Fprintf(stderr, "dtsvliw-oracle: -shrink must be >= 0 (0 = default), got %d\n", *shrink)
		return 2
	}

	shapeList, err := parseShapes(*shapes)
	if err != nil {
		fmt.Fprintln(stderr, "dtsvliw-oracle:", err)
		return 2
	}
	configList, err := oracle.ParseConfigs(*configs)
	if err != nil {
		fmt.Fprintln(stderr, "dtsvliw-oracle:", err)
		return 2
	}

	opts := oracle.SweepOptions{
		N:            *n,
		Seed:         *seed,
		Shapes:       shapeList,
		Configs:      configList,
		MaxFail:      *maxFail,
		ShrinkEvals:  *shrink,
		VerifyBlocks: *verifyB,
		Workers:      *workers,
		NoReuse:      *noReuse,
		FastForward:  *ff,
	}
	if *replay >= 0 {
		// Replay mode: exactly one program, the given seed, first listed
		// shape and configuration.
		opts.N = 1
		opts.Seed = *replay
	}
	if *verbose {
		opts.Progress = func(done, total int, f *oracle.Failure) {
			if f != nil {
				fmt.Fprintf(stdout, "[%d/%d] FAIL\n", done, total)
				return
			}
			if done%100 == 0 || done == total {
				fmt.Fprintf(stdout, "[%d/%d] ok\n", done, total)
			}
		}
	}

	// Wrap Progress with lock-free counters feeding the periodic summary
	// and /statusz; the simulation itself never blocks on either reader.
	var doneCount, failCount atomic.Int64
	nworkers := par.Workers(opts.Workers, opts.N)
	inner := opts.Progress
	opts.Progress = func(done, total int, f *oracle.Failure) {
		doneCount.Store(int64(done))
		if f != nil {
			failCount.Add(1)
		}
		if inner != nil {
			inner(done, total, f)
		}
	}

	start := time.Now()
	if *metricsAddr != "" {
		srv, err := introspect.Serve(*metricsAddr, introspect.Options{
			Program: "dtsvliw-oracle",
			Args:    args,
			Status: func() introspect.Status {
				return introspect.Status{
					Config: map[string]string{
						"n": fmt.Sprint(opts.N), "seed": fmt.Sprint(opts.Seed),
						"shapes": *shapes, "configs": *configs,
						"workers": fmt.Sprint(nworkers),
					},
					Progress: &introspect.Progress{
						Done: int(doneCount.Load()), Total: opts.N, Workers: nworkers,
					},
				}
			},
		})
		if err != nil {
			fmt.Fprintln(stderr, "dtsvliw-oracle:", err)
			return 2
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "oracle: introspection on http://%s\n", srv.Addr())
	}
	if *progress {
		ticker := time.NewTicker(2 * time.Second)
		defer ticker.Stop()
		go func() {
			for range ticker.C {
				d := doneCount.Load()
				rate := float64(d) / time.Since(start).Seconds()
				fmt.Fprintf(stderr, "oracle: %d/%d programs (%.0f/s, %d workers, %d failures)\n",
					d, opts.N, rate, nworkers, failCount.Load())
			}
		}()
	}
	rep := oracle.Sweep(opts)
	elapsed := time.Since(start)

	for i := range rep.Failures {
		fmt.Fprintln(stdout, rep.Failures[i].Render())
	}
	fmt.Fprintf(stdout, "oracle: %d programs, %d sequential instructions, %d DTSVLIW cycles, %d divergences (%.1fs)\n",
		rep.Runs, rep.Instret, rep.Cycles, len(rep.Failures), elapsed.Seconds())
	if len(rep.Failures) > 0 {
		return 1
	}
	return 0
}

func shapeNames() []string {
	var names []string
	for _, s := range progen.Shapes() {
		names = append(names, s.String())
	}
	return names
}

func parseShapes(arg string) ([]progen.Shape, error) {
	if arg == "" {
		return nil, nil
	}
	var out []progen.Shape
	for _, name := range strings.Split(arg, ",") {
		s, ok := progen.ShapeByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown shape %q (have: %s)", name, strings.Join(shapeNames(), ", "))
		}
		out = append(out, s)
	}
	return out, nil
}

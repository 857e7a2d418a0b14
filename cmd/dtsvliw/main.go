// Command dtsvliw runs a program on the DTSVLIW simulator and reports
// performance statistics.
//
// Run a built-in SPECint95-analogue workload:
//
//	dtsvliw -workload ijpeg -width 8 -height 8
//
// Or an assembly file:
//
//	dtsvliw -file prog.s -feasible
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"dtsvliw"
	"dtsvliw/internal/core"
	"dtsvliw/internal/introspect"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, runs the program and prints its
// statistics, and returns the exit status (0 clean, 1 on a failed run, 2
// on a usage error: a missing or unknown workload, or a configuration the
// machine refuses).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dtsvliw", flag.ExitOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "built-in workload name ("+strings.Join(dtsvliw.WorkloadNames(), " ")+")")
	file := fs.String("file", "", "SPARC V7 assembly file to run instead of a workload")
	width := fs.Int("width", 8, "instructions per long instruction")
	height := fs.Int("height", 8, "long instructions per block")
	feasible := fs.Bool("feasible", false, "use the paper's feasible machine configuration")
	vcacheKB := fs.Int("vcache", 0, "VLIW Cache size in KB (0 = configuration default)")
	vcacheAssoc := fs.Int("vcache-assoc", 0, "VLIW Cache associativity (0 = default)")
	max := fs.Uint64("max", 0, "stop after N sequential instructions (0 = run to halt)")
	testMode := fs.Bool("testmode", false, "lockstep-validate against the sequential test machine")
	strategies := core.StrategyNames()
	strategy := fs.String("strategy", "", "scheduling strategy ("+strings.Join(strategies, " ")+"; empty = "+strategies[0]+")")
	schedBudget := fs.Int("sched-budget", 0, "search budget per block for the optimal strategy (0 = default, negative = unlimited)")
	showOutput := fs.Bool("output", false, "print the program's trap output")
	dumpBlocks := fs.Int("dumpblocks", 0, "print the first N scheduled blocks (Figure 2c style)")
	trace := fs.String("trace", "", "write a Chrome trace-event JSON timeline to this path (open in Perfetto)")
	profile := fs.Bool("profile", false, "print the hot-block profile and distribution histograms")
	profileTop := fs.Int("profile-top", 10, "with -profile: hot blocks listed")
	ringSize := fs.Int("trace-ring", 0, "telemetry event ring capacity (0 = 8k events; raise for long timeline exports)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /statusz and /debug/pprof on this address for the duration of the run")
	fs.Parse(args) // ExitOnError: -h exits 0, a malformed flag exits 2

	// fail prints err under the program's name and returns status 1, or 2
	// for a configuration the machine refuses. Errors from the dtsvliw
	// package already start with that name, so it is not repeated.
	fail := func(err error) int {
		msg := err.Error()
		if !strings.HasPrefix(msg, "dtsvliw: ") {
			msg = "dtsvliw: " + msg
		}
		fmt.Fprintln(stderr, msg)
		var ce *core.ConfigError
		if errors.As(err, &ce) {
			return 2
		}
		return 1
	}

	var cfg dtsvliw.Config
	if *feasible {
		cfg = dtsvliw.Feasible()
	} else {
		cfg = dtsvliw.Ideal(*width, *height)
	}
	// Zero keeps the configuration's default; any other value, negative
	// ones included, is the machine configuration's to accept or refuse.
	if *vcacheKB != 0 {
		cfg.VCacheKB = *vcacheKB
	}
	if *vcacheAssoc != 0 {
		cfg.VCacheAssoc = *vcacheAssoc
	}
	cfg.MaxInstrs = *max
	cfg.TestMode = *testMode
	cfg.SchedStrategy = *strategy
	cfg.SchedNodeBudget = *schedBudget
	if *trace != "" || *profile {
		cfg.Telemetry = true
		cfg.TelemetryRingSize = *ringSize
	}

	if *metricsAddr != "" {
		srv, err := introspect.Serve(*metricsAddr, introspect.Options{
			Program: "dtsvliw",
			Args:    args,
			Status: func() introspect.Status {
				return introspect.Status{
					Config: map[string]string{
						"workload": *workload, "file": *file,
						"geometry": fmt.Sprintf("%dx%d", cfg.Width, cfg.Height),
						"strategy": *strategy,
					},
					Fingerprint: cfg.Fingerprint(),
				}
			},
		})
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "dtsvliw: introspection on http://%s\n", srv.Addr())
	}

	var sys *dtsvliw.System
	var err error
	switch {
	case *workload != "":
		if !slices.Contains(dtsvliw.WorkloadNames(), *workload) {
			fmt.Fprintf(stderr, "dtsvliw: unknown workload %q (have %v)\n", *workload, dtsvliw.WorkloadNames())
			return 2
		}
		sys, err = dtsvliw.NewSystemFromWorkload(cfg, *workload)
	case *file != "":
		src, rerr := os.ReadFile(*file)
		if rerr != nil {
			return fail(rerr)
		}
		var p *dtsvliw.Program
		p, err = dtsvliw.Assemble(string(src))
		if err == nil {
			sys, err = dtsvliw.NewSystem(cfg, p)
		}
	default:
		fmt.Fprintln(stderr, "need -workload or -file; workloads:", dtsvliw.WorkloadNames())
		return 2
	}
	if err != nil {
		return fail(err)
	}
	if *dumpBlocks > 0 {
		remaining := *dumpBlocks
		sys.OnBlockSaved(func(dump string) {
			if remaining > 0 {
				fmt.Fprint(stdout, dump)
				remaining--
			}
		})
	}
	if err := sys.Run(); err != nil {
		return fail(err)
	}

	s := sys.Stats()
	if err := s.WriteCounters(stdout); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "IPC:                 %.3f\n", s.IPC())
	fmt.Fprintf(stdout, "VLIW cycles:         %.2f%%\n", 100*s.VLIWCycleFraction())
	fmt.Fprintf(stdout, "renaming (int/fp/flag/mem): %d/%d/%d/%d\n",
		s.Sched.MaxRenames[0], s.Sched.MaxRenames[1], s.Sched.MaxRenames[2], s.Sched.MaxRenames[3])
	if sys.Halted() {
		fmt.Fprintf(stdout, "exit code:           %d\n", sys.ExitCode())
	}
	if *showOutput && len(sys.Output()) > 0 {
		fmt.Fprintf(stdout, "program output:      %q\n", sys.Output())
	}

	if tel := sys.Telemetry(); tel != nil {
		fmt.Fprintf(stdout, "%s\n", tel.Summary())
		if *profile {
			fmt.Fprint(stdout, tel.ProfileReport(*profileTop))
			fmt.Fprint(stdout, tel.HistogramReport())
		}
		if *trace != "" {
			f, err := os.Create(*trace)
			if err != nil {
				return fail(err)
			}
			if err := tel.WriteChromeTrace(f); err != nil {
				f.Close()
				return fail(err)
			}
			if err := f.Close(); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "trace:               %s (%d events, %d dropped)\n",
				*trace, tel.Recorded(), tel.Dropped())
		}
	}
	return 0
}

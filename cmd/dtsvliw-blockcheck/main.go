// Command dtsvliw-blockcheck statically verifies the legality of every
// VLIW block a DTSVLIW run schedules: each block saved to the VLIW Cache
// is checked against the sequential instruction trace it was scheduled
// from (internal/blockcheck) — dataflow across long-instruction cycles,
// rename/split linkage, branch tags and speculation, resource and
// geometry constraints, memory order, and agreement of the lowered
// micro-op form. The first illegal block aborts the run with a violation
// report naming the offending cycle and slot; a clean run prints a
// per-run summary and exits 0.
//
// Examples:
//
//	dtsvliw-blockcheck -workload all
//	dtsvliw-blockcheck -workload all -par 0
//	dtsvliw-blockcheck -workload gcc -configs feasible,multicycle
//	dtsvliw-blockcheck -file prog.s -configs ideal-8x8 -json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/core"
	"dtsvliw/internal/oracle"
	"dtsvliw/internal/par"
	"dtsvliw/internal/progcheck"
	"dtsvliw/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, checks every run, and returns the
// exit status (0 clean, 1 on an illegal block or a failed run, 2 on a
// usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dtsvliw-blockcheck", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", `built-in workload name, or "all"`)
		file     = fs.String("file", "", "SPARC V7 assembly file to check instead of a workload")
		configs  = fs.String("configs", "", "comma-separated machine configurations (default: all)")
		max      = fs.Uint64("max", 0, "stop each run after N sequential instructions (0 = run to halt)")
		workers  = fs.Int("par", 1, "run the workload x config matrix on this many workers (0 = one per CPU; output order is unchanged)")
		asJSON   = fs.Bool("json", false, "print violation reports as JSON")
		verbose  = fs.Bool("v", false, "print a line per run")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr,
			"usage: dtsvliw-blockcheck [flags]\n\nworkloads: %s\nconfigs:   %s\n\nflags:\n",
			strings.Join(workloads.Names(), ", "), strings.Join(oracle.ConfigNames(), ", "))
		fs.PrintDefaults()
	}
	fs.Parse(args) // ExitOnError: -h exits 0, a malformed flag exits 2
	if *workers < 0 {
		fmt.Fprintf(stderr, "dtsvliw-blockcheck: -par must be >= 0 (0 = one per CPU), got %d\n", *workers)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "dtsvliw-blockcheck:", err)
		return 1
	}
	usage := func(err error) int {
		fmt.Fprintln(stderr, "dtsvliw-blockcheck:", err)
		return 2
	}

	configList, err := oracle.ParseConfigs(*configs)
	if err != nil {
		return usage(err)
	}

	var runs []program
	switch {
	case *workload == "all":
		for _, w := range workloads.All() {
			runs = append(runs, program{name: w.Name, workload: w})
		}
	case *workload != "":
		w, ok := workloads.ByName(*workload)
		if !ok {
			return usage(fmt.Errorf("unknown workload %q (have: %s)", *workload, strings.Join(workloads.Names(), ", ")))
		}
		runs = append(runs, program{name: w.Name, workload: w})
	case *file != "":
		src, err := os.ReadFile(*file)
		if err != nil {
			return fail(err)
		}
		runs = append(runs, program{name: *file, source: string(src)})
	default:
		fmt.Fprintln(stderr, "need -workload or -file")
		fs.Usage()
		return 2
	}

	// Static pre-pass: every program is certified by progcheck before any
	// simulation touches it. Hard diagnostics (structurally malformed
	// programs) abort the matrix; advisory ones are summarised per run.
	precheckFailed := false
	for _, r := range runs {
		src := r.source
		if r.workload != nil {
			src = r.workload.Source
		}
		pr, err := progcheck.Check(src, progcheck.Options{})
		if err != nil {
			return fail(fmt.Errorf("progcheck %s: %w", r.name, err))
		}
		hard, advisory := len(pr.Unwaived(true)), len(pr.Unwaived(false))
		if hard > 0 {
			precheckFailed = true
			fmt.Fprintf(stdout, "FAIL %s: progcheck found %d hard diagnostic(s):\n", r.name, hard)
			for _, d := range pr.Unwaived(true) {
				fmt.Fprintf(stdout, "  %s\n", d.String())
			}
		} else if *verbose || advisory > 0 {
			fmt.Fprintf(stdout, "ok   %-10s progcheck: %d blocks, %d loops, %d advisory diagnostic(s)\n",
				r.name, len(pr.CFG.Blocks), len(pr.CFG.Loops), advisory)
		}
	}
	if precheckFailed {
		return 1
	}

	// The run x config matrix: every cell is independent, so cells are
	// fanned out over workers and their results printed strictly in
	// matrix order — the output is byte-identical for any -par value.
	var totalBlocks, totalRuns uint64
	failed := false
	n := len(runs) * len(configList)
	par.Ordered(*workers, n, func(int) func(int) cellResult {
		return func(i int) cellResult {
			cfg := configList[i%len(configList)].Cfg
			cfg.VerifyBlocks = true
			cfg.MaxInstrs = *max
			verified, err := runs[i/len(configList)].check(cfg)
			return cellResult{verified: verified, err: err}
		}
	}, func(i int, res cellResult) bool {
		r, nc := runs[i/len(configList)], configList[i%len(configList)]
		totalRuns++
		totalBlocks += res.verified
		if res.err == nil {
			if *verbose {
				fmt.Fprintf(stdout, "ok   %-10s %-12s %d blocks verified\n", r.name, nc.Name, res.verified)
			}
			return false
		}
		failed = true
		var ve *core.BlockVerifyError
		if !errors.As(res.err, &ve) {
			fmt.Fprintf(stdout, "FAIL %s under %s: %v\n", r.name, nc.Name, res.err)
			return false
		}
		fmt.Fprintf(stdout, "FAIL %s under %s: illegal block\n", r.name, nc.Name)
		if !*asJSON {
			fmt.Fprintln(stdout, ve.Report)
		} else if err := printJSON(stdout, ve); err != nil {
			fail(err)
		}
		return false
	})
	fmt.Fprintf(stdout, "blockcheck: %d runs, %d blocks verified\n", totalRuns, totalBlocks)
	if failed {
		return 1
	}
	return 0
}

// cellResult is the outcome of one (program, config) matrix cell.
type cellResult struct {
	verified uint64
	err      error
}

// program is one program to push through the machine with verification
// on.
type program struct {
	name     string
	workload *workloads.Workload
	source   string
}

// check executes the run under cfg and returns the number of blocks that
// passed save-time verification.
func (r *program) check(cfg core.Config) (uint64, error) {
	var st *arch.State
	var err error
	if r.workload != nil {
		st, err = r.workload.NewState(cfg.NWin)
	} else {
		st, err = oracle.BuildState(r.source, cfg.NWin)
	}
	if err != nil {
		return 0, err
	}
	if cfg.MaxCycles == 0 || cfg.MaxCycles > 1<<40 {
		cfg.MaxCycles = 1 << 40
	}
	m, err := core.NewMachine(cfg, st)
	if err != nil {
		return 0, err
	}
	if err := m.Run(); err != nil {
		return m.Stats.BlocksVerified, err
	}
	return m.Stats.BlocksVerified, nil
}

// printJSON renders the failed block's violations machine-readably.
func printJSON(w io.Writer, ve *core.BlockVerifyError) error {
	rep := ve.Report
	type jsonViolation struct {
		Kind   string   `json:"kind"`
		Cycle  int      `json:"cycle"`
		Slot   int      `json:"slot"`
		Addr   string   `json:"addr"`
		Seq    uint64   `json:"seq"`
		Tag    uint8    `json:"tag"`
		Locs   []string `json:"locs,omitempty"`
		Detail string   `json:"detail"`
	}
	out := struct {
		BlockTag   string          `json:"block_tag"`
		EntryCWP   uint8           `json:"entry_cwp"`
		NumLIs     int             `json:"num_lis"`
		Violations []jsonViolation `json:"violations"`
	}{
		BlockTag: fmt.Sprintf("%#08x", rep.BlockTag),
		EntryCWP: rep.EntryCWP,
		NumLIs:   rep.NumLIs,
	}
	for _, v := range rep.Violations {
		jv := jsonViolation{
			Kind: v.Kind.String(), Cycle: v.Cycle, Slot: v.Slot,
			Addr: fmt.Sprintf("%#08x", v.Addr), Seq: v.Seq, Tag: v.Tag,
			Detail: v.Detail,
		}
		for _, l := range v.Locs {
			jv.Locs = append(jv.Locs, l.String())
		}
		out.Violations = append(out.Violations, jv)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

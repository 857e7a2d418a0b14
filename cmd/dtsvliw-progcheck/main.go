// Command dtsvliw-progcheck statically analyses assembled SPARC-subset
// programs: CFG well-formedness (undecodable words, branches out of
// text, fall-off-end, unreachable blocks), dataflow findings
// (uninitialised reads, register-window depth, constant-address range)
// and per-geometry static ILP upper bounds (DESIGN.md §18).
//
// Usage:
//
//	dtsvliw-progcheck [-workload name|all] [-file prog.s]
//	                  [-geoms 4x4,8x8,16x16] [-nwin N]
//	                  [-progen N -seed S] [-json] [-q]
//
// With -workload or -file it prints each program's diagnostic report and
// static-bound table and exits 1 if any unwaived diagnostic remains.
// With -progen N it certifies N generated programs per shape (the same
// generator the differential oracle uses) against the hard diagnostic
// kinds and exits 1 on the first failure — the CI gate that keeps the
// program generator and the checker honest against each other.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dtsvliw/internal/progcheck"
	"dtsvliw/internal/progen"
	"dtsvliw/internal/workloads"
)

type boundRow struct {
	Program string  `json:"program"`
	Width   int     `json:"width"`
	Height  int     `json:"height"`
	IPC     float64 `json:"static_ipc_bound"`
}

type report struct {
	Program  string `json:"program"`
	Blocks   int    `json:"blocks"`
	Loops    int    `json:"loops"`
	Diags    []diag `json:"diags"`
	Unwaived int    `json:"unwaived"`
}

type diag struct {
	Kind   string `json:"kind"`
	Addr   uint32 `json:"addr"`
	Line   int    `json:"line"`
	Msg    string `json:"msg"`
	Waived bool   `json:"waived"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, checks, and returns the exit
// status (0 clean, 1 on an unwaived diagnostic or a failed
// certification, 2 on a usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dtsvliw-progcheck", flag.ExitOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name, or \"all\"")
	file := fs.String("file", "", "assembly source file to check")
	geoms := fs.String("geoms", "4x4,8x8,16x16", "comma-separated block geometries (WxH) for the static bound")
	nwin := fs.Int("nwin", 8, "register windows assumed by the window-depth pass")
	progenN := fs.Int("progen", 0, "certify N generated programs per shape instead of checking sources")
	seed := fs.Int64("seed", 1, "base seed for -progen")
	asJSON := fs.Bool("json", false, "emit reports and bound rows as JSON")
	quiet := fs.Bool("q", false, "suppress per-diagnostic output; print summaries only")
	fs.Parse(args) // ExitOnError: -h exits 0, a malformed flag exits 2
	if *progenN < 0 {
		fmt.Fprintf(stderr, "dtsvliw-progcheck: -progen must be >= 0, got %d\n", *progenN)
		return 2
	}
	if *nwin < 2 || *nwin > 32 {
		fmt.Fprintf(stderr, "dtsvliw-progcheck: -nwin must be 2 to 32 (SPARC V7 register windows), got %d\n", *nwin)
		return 2
	}
	if *progenN > 0 {
		return certifyGenerated(stdout, stderr, *progenN, *seed)
	}

	type target struct{ name, source string }
	var targets []target
	switch {
	case *file != "":
		b, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(stderr, "dtsvliw-progcheck:", err)
			return 2
		}
		targets = append(targets, target{*file, string(b)})
	case *workload == "all" || *workload == "":
		for _, w := range workloads.All() {
			targets = append(targets, target{w.Name, w.Source})
		}
	default:
		w, ok := workloads.ByName(*workload)
		if !ok {
			fmt.Fprintf(stderr, "dtsvliw-progcheck: unknown workload %q (have %s)\n",
				*workload, strings.Join(workloads.Names(), ", "))
			return 2
		}
		targets = append(targets, target{w.Name, w.Source})
	}

	gs, err := parseGeoms(*geoms)
	if err != nil {
		fmt.Fprintln(stderr, "dtsvliw-progcheck:", err)
		return 2
	}

	var reports []report
	var bounds []boundRow
	unwaived := 0
	for _, t := range targets {
		r, err := progcheck.Check(t.source, progcheck.Options{NWin: *nwin})
		if err != nil {
			fmt.Fprintf(stderr, "dtsvliw-progcheck: %s: %v\n", t.name, err)
			return 1
		}
		rep := report{Program: t.name, Blocks: len(r.CFG.Blocks), Loops: len(r.CFG.Loops),
			Unwaived: len(r.Unwaived(false))}
		for _, d := range r.Diags {
			rep.Diags = append(rep.Diags, diag{d.Kind.String(), d.Addr, d.Line, d.Msg, d.Waived})
		}
		reports = append(reports, rep)
		unwaived += rep.Unwaived
		for _, g := range gs {
			b := progcheck.ComputeBound(r.CFG, progcheck.BoundParams{Width: g[0], Height: g[1]})
			bounds = append(bounds, boundRow{t.name, g[0], g[1], b.IPC})
		}
		if !*asJSON {
			if *quiet {
				fmt.Fprintf(stdout, "%s: %d blocks, %d loops, %d diagnostics (%d unwaived)\n",
					rep.Program, rep.Blocks, rep.Loops, len(rep.Diags), rep.Unwaived)
			} else {
				fmt.Fprint(stdout, r.Report(t.name))
			}
		}
	}

	if *asJSON {
		out := struct {
			Reports []report   `json:"reports"`
			Bounds  []boundRow `json:"bounds"`
		}{reports, bounds}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "dtsvliw-progcheck:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", b)
	} else {
		fmt.Fprintf(stdout, "\n%-10s", "program")
		for _, g := range gs {
			fmt.Fprintf(stdout, "  %7s", fmt.Sprintf("%dx%d", g[0], g[1]))
		}
		fmt.Fprintln(stdout, "  (static IPC upper bound)")
		i := 0
		for _, rep := range reports {
			fmt.Fprintf(stdout, "%-10s", rep.Program)
			for range gs {
				fmt.Fprintf(stdout, "  %7s", progcheck.FormatIPC(bounds[i].IPC))
				i++
			}
			fmt.Fprintln(stdout)
		}
	}

	if unwaived > 0 {
		fmt.Fprintf(stderr, "dtsvliw-progcheck: %d unwaived diagnostic(s)\n", unwaived)
		return 1
	}
	return 0
}

// certifyGenerated runs the hard-kind certification sweep over generated
// programs, mirroring what the differential oracle does before every run.
func certifyGenerated(stdout, stderr io.Writer, n int, seed int64) int {
	checked := 0
	for _, shape := range progen.Shapes() {
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			src := progen.Generate(progen.ShapeParams(shape, s))
			if err := progcheck.Certify(src); err != nil {
				fmt.Fprintf(stderr, "dtsvliw-progcheck: shape %v seed %d: %v\n", shape, s, err)
				return 1
			}
			checked++
		}
	}
	fmt.Fprintf(stdout, "certified %d generated programs (hard kinds clean)\n", checked)
	return 0
}

// parseGeoms turns "4x4,8x8" into geometry pairs.
func parseGeoms(s string) ([][2]int, error) {
	var out [][2]int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var w, h int
		if n, err := fmt.Sscanf(part, "%dx%d", &w, &h); n != 2 || err != nil {
			return nil, fmt.Errorf("bad geometry %q (want WxH)", part)
		}
		if w <= 0 || h <= 0 {
			return nil, fmt.Errorf("bad geometry %q (want positive WxH)", part)
		}
		out = append(out, [2]int{w, h})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no geometries given")
	}
	return out, nil
}

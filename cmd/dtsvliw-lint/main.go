// Command dtsvliw-lint runs the repository's custom static-analysis
// passes (internal/analysis) over the packages they apply to. Findings
// print in the familiar file:line:col form; any finding exits 1.
//
// With no arguments each pass checks its own default package set: the
// determinism pass covers the packages whose emitted artifacts are
// diffed against golden output, and the resetcheck pass covers the
// machine packages whose pooled state is reused across runs. With
// explicit package arguments, every pass runs over those packages:
//
//	dtsvliw-lint
//	dtsvliw-lint dtsvliw/internal/telemetry dtsvliw/internal/stats
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"dtsvliw/internal/analysis"
	"dtsvliw/internal/analysis/determinism"
	"dtsvliw/internal/analysis/resetcheck"
)

// defaultTargets are the packages whose emitted artifacts (experiment
// tables, benchmark reports, telemetry summaries) are diffed against
// committed golden output and therefore must be deterministic.
var defaultTargets = []string{
	"dtsvliw/internal/telemetry",
	"dtsvliw/internal/stats",
	"dtsvliw/internal/experiments",
	"dtsvliw/internal/optsched",
	// The conformance sweep's report must be byte-identical for any
	// worker count and across context reuse, so the oracle and the
	// pooled machine contexts are held to the same standard.
	"dtsvliw/internal/oracle",
	"dtsvliw/internal/core",
	// The one ordered worker pool behind the sweep, the experiments and
	// blockcheck: its merge order is what makes their output identical
	// for any worker count.
	"dtsvliw/internal/par",
	// Metrics snapshots/dumps are diffed byte-for-byte in tests, and the
	// introspection server renders them; both must stay deterministic
	// (introspect's uptime stamp carries a determinism:allow).
	"dtsvliw/internal/metrics",
	"dtsvliw/internal/introspect",
}

// resetTargets are the packages whose state objects are pooled and
// reused (machine contexts, scheduler pools, cache models): their Reset
// methods must cover every field or carry a reviewed waiver.
var resetTargets = []string{
	"dtsvliw/internal/arch",
	"dtsvliw/internal/core",
	"dtsvliw/internal/isa",
	"dtsvliw/internal/mem",
	"dtsvliw/internal/primary",
	"dtsvliw/internal/sched",
	"dtsvliw/internal/vcache",
	"dtsvliw/internal/vliw",
}

func main() {
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := analysis.FindModuleRoot(wd)
	if err != nil {
		fatal(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fatal(err)
	}

	load := func(targets []string) []*analysis.Package {
		var pkgs []*analysis.Package
		for _, t := range targets {
			pkg, err := loader.Load(t)
			if err != nil {
				fatal(err)
			}
			pkgs = append(pkgs, pkg)
		}
		return pkgs
	}

	// Each pass runs over its own default package set, or every pass over
	// the explicitly named packages.
	type job struct {
		analyzers []*analysis.Analyzer
		pkgs      []*analysis.Package
	}
	var jobs []job
	npkgs := 0
	if args := os.Args[1:]; len(args) > 0 {
		pkgs := load(args)
		jobs = append(jobs, job{[]*analysis.Analyzer{determinism.Analyzer, resetcheck.Analyzer}, pkgs})
		npkgs = len(pkgs)
	} else {
		jobs = append(jobs,
			job{[]*analysis.Analyzer{determinism.Analyzer}, load(defaultTargets)},
			job{[]*analysis.Analyzer{resetcheck.Analyzer}, load(resetTargets)})
		npkgs = len(defaultTargets) + len(resetTargets)
	}

	total := 0
	for _, j := range jobs {
		diags, err := analysis.Run(j.analyzers, j.pkgs)
		if err != nil {
			fatal(err)
		}
		total += len(diags)
		for _, d := range diags {
			pos := loader.Fset.Position(d.Pos)
			rel, rerr := filepath.Rel(root, pos.Filename)
			if rerr != nil {
				rel = pos.Filename
			}
			fmt.Printf("%s:%d:%d: %s [%s]\n", rel, pos.Line, pos.Column, d.Message, d.Analyzer)
		}
	}
	if total > 0 {
		os.Exit(1)
	}
	fmt.Printf("dtsvliw-lint: %d packages clean\n", npkgs)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dtsvliw-lint:", err)
	os.Exit(1)
}

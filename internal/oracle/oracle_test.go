package oracle

import (
	"errors"
	"strings"
	"testing"

	"dtsvliw/internal/core"
	"dtsvliw/internal/progen"
	"dtsvliw/internal/sched"
)

// TestRunDiffClean: hand-written programs run identically on the DTSVLIW
// machine and the reference interpreter.
func TestRunDiffClean(t *testing.T) {
	progs := []struct {
		name, src string
		exit      uint32
		out       string
	}{
		{"sum10", `
	mov 0, %l0
	mov 10, %l1
loop:	add %l0, %l1, %l0
	subcc %l1, 1, %l1
	bne loop
	mov %l0, %o0
	ta 0
`, 55, ""},
		{"putchar", `
	mov 72, %o0
	ta 1
	mov 105, %o0
	ta 1
	mov 0, %o0
	ta 0
`, 0, "Hi"},
		{"memory", `
	set 0x7e100, %l0
	mov 7, %l1
	st %l1, [%l0]
	ld [%l0], %l2
	add %l2, %l2, %o0
	ta 0
`, 14, ""},
	}
	for _, p := range progs {
		t.Run(p.name, func(t *testing.T) {
			res, err := RunDiff(p.src, core.IdealConfig(4, 4))
			if err != nil {
				t.Fatalf("RunDiff: %v", err)
			}
			if res.ExitCode != p.exit {
				t.Fatalf("exit = %d, want %d", res.ExitCode, p.exit)
			}
			if string(res.Output) != p.out {
				t.Fatalf("output = %q, want %q", res.Output, p.out)
			}
			if res.Instret == 0 || res.Cycles == 0 {
				t.Fatalf("empty run: %+v", res)
			}
		})
	}
}

// TestRunDiffGenerated: a small conformance sweep across every shape and
// every default configuration finds zero divergences.
func TestRunDiffGenerated(t *testing.T) {
	n := 72
	if testing.Short() {
		n = 16
	}
	rep := Sweep(SweepOptions{N: n, Seed: 400, MaxFail: 4})
	for _, f := range rep.Failures {
		t.Errorf("unexpected failure:\n%s", f.Render())
	}
	if rep.Runs != n || rep.Instret == 0 {
		t.Fatalf("sweep ran %d/%d programs, %d instructions", rep.Runs, n, rep.Instret)
	}
}

// TestProgramErrorClassification: a program that faults under sequential
// execution is reported as a ProgramError, not a MismatchError.
func TestProgramErrorClassification(t *testing.T) {
	_, err := RunDiff(`
	mov 1, %l0
	ld [%l0], %o0
	ta 0
`, core.IdealConfig(4, 4))
	var pe *ProgramError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want ProgramError", err)
	}
	var d *core.MismatchError
	if errors.As(err, &d) {
		t.Fatalf("misaligned load misclassified as divergence: %v", d)
	}

	if _, err := RunDiff("not assembly at all", core.IdealConfig(4, 4)); !errors.As(err, &pe) || pe.Stage != "assemble" {
		t.Fatalf("got %v, want assemble-stage ProgramError", err)
	}
}

// TestShrinkDDMin: the line-level delta debugger reduces to exactly the
// interesting lines.
func TestShrinkDDMin(t *testing.T) {
	var lines []string
	for i := 0; i < 40; i++ {
		lines = append(lines, "filler")
	}
	lines[7] = "keep-a"
	lines[23] = "keep-b"
	src := strings.Join(lines, "\n")
	check := func(cand string) bool {
		return strings.Contains(cand, "keep-a") && strings.Contains(cand, "keep-b")
	}
	got := Shrink(src, check, 0)
	if got != "keep-a\nkeep-b" {
		t.Fatalf("shrunk to %q", got)
	}
}

// faultyConfig returns an 8x8 ideal machine with the deliberate scheduler
// bug enabled: splits silently drop their copy instruction.
func faultyConfig() core.Config {
	cfg := core.IdealConfig(8, 8)
	cfg.Fault = sched.FaultDropCopy
	return cfg
}

// findInjectedFault scans seeds until the faulty machine diverges on a
// generated program, and returns the program and seed.
func findInjectedFault(t *testing.T, shape progen.Shape, maxSeeds int) (string, int64, *core.MismatchError) {
	t.Helper()
	for seed := int64(0); seed < int64(maxSeeds); seed++ {
		src := progen.Generate(progen.ShapeParams(shape, seed))
		_, err := RunDiff(src, faultyConfig())
		var d *core.MismatchError
		if errors.As(err, &d) {
			return src, seed, d
		}
		if err != nil {
			t.Fatalf("seed %d: non-divergence failure on faulty machine: %v", seed, err)
		}
	}
	t.Fatalf("no seed in [0,%d) tripped the injected scheduler fault", maxSeeds)
	return "", 0, nil
}

// TestMetaInjectedFault: the meta-test of the oracle itself. A deliberate
// scheduler bug (splits lose their copy instruction, so renamed values
// never reach the architectural registers) must be caught by the
// differential runner, shrink to a smaller reproducer, and the reproducer
// must be clean on the unbroken machine.
func TestMetaInjectedFault(t *testing.T) {
	src, seed, div := findInjectedFault(t, progen.ShapeMixed, 40)
	t.Logf("injected fault caught at seed %d: %s (%s)", seed, div.Diff, div.Where)

	small, smallDiv := ShrinkDivergence(src, faultyConfig(), 200)
	if smallDiv == nil {
		t.Fatal("shrunk reproducer no longer diverges")
	}
	if countLines(small) >= countLines(src) {
		t.Fatalf("shrinking did not reduce: %d -> %d lines", countLines(src), countLines(small))
	}
	t.Logf("shrunk %d -> %d lines; divergence: %s", countLines(src), countLines(small), smallDiv.Diff)

	// The reproducer must still trip the faulty machine (replayability)...
	if _, err := RunDiff(small, faultyConfig()); err == nil {
		t.Fatal("shrunk reproducer passes on the faulty machine")
	}
	// ...and must be clean on the correct machine: the oracle flags the
	// injected bug, not the program.
	if _, err := RunDiff(small, core.IdealConfig(8, 8)); err != nil {
		t.Fatalf("shrunk reproducer fails on the correct machine: %v", err)
	}
}

// TestMetaFaultViaSweep: the conformance driver end-to-end against the
// faulty machine — it must report a shrunk, replayable failure.
func TestMetaFaultViaSweep(t *testing.T) {
	rep := Sweep(SweepOptions{
		N: 40, Seed: 0,
		Shapes:  []progen.Shape{progen.ShapeMixed},
		Configs: []NamedConfig{{Name: "faulty", Cfg: faultyConfig()}},
		MaxFail: 1,
	})
	if len(rep.Failures) == 0 {
		t.Fatal("sweep over the faulty machine reported no failures")
	}
	f := rep.Failures[0]
	if f.Div == nil {
		t.Fatalf("failure has no divergence: %+v", f.Err)
	}
	if f.Lines >= f.OrigLines {
		t.Fatalf("failure not shrunk: %d -> %d lines", f.OrigLines, f.Lines)
	}
	r := f.Render()
	for _, want := range []string{"seed=", "shape=mixed", "config=faulty", "reproducer"} {
		if !strings.Contains(r, want) {
			t.Fatalf("rendered failure missing %q:\n%s", want, r)
		}
	}
	// Replayability: the rendered source between the markers still fails.
	if _, err := RunDiff(f.Source, faultyConfig()); err == nil {
		t.Fatal("reported reproducer does not reproduce")
	}
}

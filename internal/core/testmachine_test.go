package core

import (
	"errors"
	"strings"
	"testing"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/progen"
	"dtsvliw/internal/sched"
)

// TestLockstepReportsPerturbedTestMachine: a test machine that disagrees
// with the machine in one respect is caught at the first checkpoint that
// can see the difference, as a MismatchError naming that checkpoint.
func TestLockstepReportsPerturbedTestMachine(t *testing.T) {
	const src = `
	nop
	nop
	ta 0
`
	cases := []struct {
		name    string
		perturb func(t *testing.T, st *arch.State, tm *TestMachine)
		where   string
		diffHas string
	}{
		{"machine one instruction ahead", func(t *testing.T, st *arch.State, tm *TestMachine) {
			if err := st.Step(); err != nil {
				t.Fatal(err)
			}
		}, "primary pc=0x00001004", "PC: machine 0x00001008, test machine 0x00001004"},
		{"register only in the test machine", func(t *testing.T, st *arch.State, tm *TestMachine) {
			tm.St.SetReg(16, 7) // %l0
		}, "primary pc=0x00001000", "phys r"},
		{"output only in the test machine", func(t *testing.T, st *arch.State, tm *TestMachine) {
			tm.St.Output = append(tm.St.Output, 'x')
		}, "primary pc=0x00001000", `output: machine "", test machine "x"`},
		{"memory only in the test machine", func(t *testing.T, st *arch.State, tm *TestMachine) {
			if err := tm.St.Mem.Write(0x7F100, 1, 4); err != nil {
				t.Fatal(err)
			}
		}, "halt", "mem[0x0007f103]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := buildState(t, src, 8)
			tm := NewTestMachine(st.Clone())
			c.perturb(t, st, tm)
			m, err := NewMachine(IdealConfig(4, 4), st)
			if err != nil {
				t.Fatal(err)
			}
			m.Lockstep(tm)
			err = m.Run()
			var mm *MismatchError
			if !errors.As(err, &mm) {
				t.Fatalf("Run = %v, want a MismatchError", err)
			}
			if mm.Where != c.where || !strings.Contains(mm.Diff, c.diffHas) {
				t.Fatalf("mismatch at %q: %q; want at %q containing %q", mm.Where, mm.Diff, c.where, c.diffHas)
			}
		})
	}
}

// TestTestModeCatchesDroppedCopies: TestMode alone catches the injected
// scheduler bug the differential oracle's meta-tests use (splits drop
// their copy instruction), and reports it as a MismatchError.
func TestTestModeCatchesDroppedCopies(t *testing.T) {
	cfg := IdealConfig(8, 8)
	cfg.TestMode = true
	cfg.Fault = sched.FaultDropCopy
	cfg.MaxCycles = 50_000_000
	caught := 0
	for seed := int64(0); seed < 40; seed++ {
		st := buildState(t, progen.Generate(progen.ShapeParams(progen.ShapeMixed, seed)), cfg.NWin)
		m, err := NewMachine(cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		err = m.Run()
		if err == nil {
			continue
		}
		var mm *MismatchError
		if !errors.As(err, &mm) {
			t.Fatalf("seed %d: %v, want a MismatchError", seed, err)
		}
		caught++
	}
	t.Logf("dropped copies caught on %d of 40 seeds", caught)
	if caught == 0 {
		t.Fatal("TestMode caught the injected fault on no seed")
	}
}

// TestLockstepCheckpointZeroAlloc: a lock-step checkpoint that finds the
// machines equal allocates nothing, at every kind of site. Each Primary
// step is at an address not seen before, and each one stores, so the
// store logs are compared too. The halt comparison, which compares
// the full memory image, allocates nothing either.
func TestLockstepCheckpointZeroAlloc(t *testing.T) {
	const runs = 50
	src := "\tmov 1, %l0\n" +
		strings.Repeat("\tst %l0, [%sp+64]\n\tadd %l0, 3, %l0\n", 3*runs) +
		"\tmov %l0, %o0\n\tta 0\n"
	st := buildState(t, src, 8)
	m, err := NewMachine(IdealConfig(4, 4), st)
	if err != nil {
		t.Fatal(err)
	}
	m.Lockstep(NewTestMachine(st.Clone()))
	// step retires one instruction on the machine's state and reports
	// it at the checkpoint where describes.
	step := func(where func(pc uint32) site) {
		pc := m.St.PC
		if err := m.St.Step(); err != nil {
			t.Fatal(err)
		}
		if err := m.notifyCheckpoint(1, m.St.PC, where(pc)); err != nil {
			t.Fatal(err)
		}
	}
	rollbackErr := errors.New("injected exception")
	sites := []struct {
		name string
		run  func()
	}{
		{"primary", func() { step(func(pc uint32) site { return site{kind: sitePrimary, pc: pc} }) }},
		{"fast-forward", func() { step(func(uint32) site { return site{kind: siteFastForward} }) }},
		{"trace exit", func() { step(func(uint32) site { return site{kind: siteTraceExit} }) }},
		{"block end", func() { step(func(uint32) site { return site{kind: siteBlockEnd} }) }},
		{"rollback", func() {
			err := m.notifyCheckpoint(0, m.St.PC, site{kind: siteRollback, pc: m.St.PC, err: rollbackErr})
			if err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, s := range sites {
		if allocs := testing.AllocsPerRun(runs, s.run); allocs != 0 {
			t.Errorf("%s checkpoint on equal states allocates %.1f times, want 0", s.name, allocs)
		}
	}
	for !m.St.Halted {
		step(func(uint32) site { return site{kind: sitePrimary} })
	}
	if allocs := testing.AllocsPerRun(runs, func() {
		if err := m.test.final(m); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("halt comparison on equal states allocates %.1f times, want 0", allocs)
	}
}

// TestTestMachineContext: the test machine keeps a bounded disassembled
// window with the latest instruction marked.
func TestTestMachineContext(t *testing.T) {
	tm := NewTestMachine(buildState(t, `
	mov 0, %l0
	mov 40, %l1
loop:	add %l0, 1, %l0
	subcc %l1, 1, %l1
	bne loop
	mov %l0, %o0
	ta 0
`, 8))
	for i := 0; i < 30; i++ {
		if err := tm.Step(); err != nil {
			t.Fatal(err)
		}
	}
	ctx := tm.Context()
	if n := len(strings.Split(ctx, "\n")); n != contextWindow {
		t.Fatalf("context window has %d lines, want %d:\n%s", n, contextWindow, ctx)
	}
	if !strings.Contains(ctx, "=>") {
		t.Fatalf("context has no current-instruction marker:\n%s", ctx)
	}
	if !strings.Contains(ctx, "add") || !strings.Contains(ctx, "subcc") {
		t.Fatalf("context not disassembled:\n%s", ctx)
	}
}

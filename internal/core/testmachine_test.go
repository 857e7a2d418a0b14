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

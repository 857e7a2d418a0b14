package core

import (
	"errors"
	"fmt"
	"testing"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/asm"
	"dtsvliw/internal/isa"
	"dtsvliw/internal/mem"
	"dtsvliw/internal/sched"
	"dtsvliw/internal/vliw"
)

// buildState assembles and loads a program into a fresh machine state.
func buildState(t testing.TB, source string, nwin int) *arch.State {
	t.Helper()
	p, err := asm.Assemble(source)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := mem.NewMemory()
	p.Load(m)
	m.Map(0x7F000, 0x1000)
	s := arch.NewState(nwin, m)
	s.PC = p.Entry
	s.SetReg(14, 0x7FF00) // %sp
	s.SetTextRange(p.TextBase, p.TextSize)
	return s
}

// loadProgram loads an assembled program into a context's (fresh or
// recycled) state with the workloads' layout: sections, stack, entry PC,
// %sp and text range, as workloads.Workload.NewState does.
func loadProgram(st *arch.State, p *asm.Program) {
	p.Load(st.Mem)
	st.Mem.Map(0x7E000, 0x2000)
	st.PC = p.Entry
	st.SetReg(14, 0x7FF00)
	st.SetTextRange(p.TextBase, p.TextSize)
}

// runDTSVLIW runs source on a DTSVLIW in lockstep test mode and returns
// the machine.
func runDTSVLIW(t testing.TB, source string, cfg Config) *Machine {
	t.Helper()
	cfg.TestMode = true
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 50_000_000
	}
	st := buildState(t, source, cfg.NWin)
	m, err := NewMachine(cfg, st)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !st.Halted {
		t.Fatal("program did not halt")
	}
	return m
}

const sumLoop = `
	.data 0x40000
vec:	.word 1, 2, 3, 4, 5, 6, 7, 8, 9, 10
	.text 0x1000
start:
	mov 0, %o1
	set vec, %o2
	mov 0, %o3
loop:
	ld [%o2+%o3], %o4
	add %o1, %o4, %o1
	add %o3, 4, %o3
	cmp %o3, 40
	bl loop
	mov %o1, %o0
	ta 0
`

// TestSumLoopGeometries runs the paper's Figure 2 loop across block
// geometries in lockstep test mode.
func TestSumLoopGeometries(t *testing.T) {
	for _, geo := range [][2]int{{3, 4}, {4, 4}, {8, 4}, {4, 8}, {8, 8}, {16, 16}, {1, 2}, {2, 1}} {
		t.Run(fmt.Sprintf("%dx%d", geo[0], geo[1]), func(t *testing.T) {
			m := runDTSVLIW(t, sumLoop, IdealConfig(geo[0], geo[1]))
			if m.St.ExitCode != 55 {
				t.Fatalf("sum = %d, want 55", m.St.ExitCode)
			}
			// Large blocks hold the whole 10-iteration program, so the
			// list never fills and no block is ever reused.
			if geo[0]*geo[1] <= 32 && m.Stats.VLIWCycles == 0 {
				t.Error("loop never executed in VLIW mode")
			}
		})
	}
}

// TestVLIWFasterThanPrimary checks that trace reuse actually speeds up a
// hot loop compared with pure sequential cycles.
func TestVLIWFasterThanPrimary(t *testing.T) {
	src := `
	.data 0x40000
vec:	.space 4000
	.text 0x1000
start:
	mov 0, %o1
	set vec, %o2
	mov 0, %o3
loop:
	ld [%o2+%o3], %o4
	add %o1, %o4, %o1
	xor %o4, %o3, %o5
	st %o5, [%o2+%o3]
	add %o3, 4, %o3
	cmp %o3, 4000
	bl loop
	mov %o1, %o0
	ta 0
`
	m := runDTSVLIW(t, src, IdealConfig(8, 8))
	ipc := m.Stats.IPC()
	if ipc <= 1.0 {
		t.Fatalf("IPC = %.3f, want > 1 for a hot loop", ipc)
	}
	if f := m.Stats.VLIWCycleFraction(); f < 0.5 {
		t.Errorf("VLIW cycle fraction = %.2f, want > 0.5", f)
	}
}

// TestFunctionCalls runs the recursive factorial through the DTSVLIW,
// exercising save/restore (CWP), call/ret (indirect branches) and
// splitting across control dependencies.
func TestFunctionCalls(t *testing.T) {
	src := `
	.text 0x1000
start:
	mov 0, %l0          ! accumulator
	mov 0, %l1          ! i
outer:
	mov 5, %o0
	call fact
	nop
	add %l0, %o0, %l0
	add %l1, 1, %l1
	cmp %l1, 20
	bl outer
	mov %l0, %o0
	ta 0
fact:
	save %sp, -96, %sp
	cmp %i0, 1
	ble base
	sub %i0, 1, %o0
	call fact
	nop
	mov 0, %l0
	mov %i0, %l1
mul:
	add %l0, %o0, %l0
	subcc %l1, 1, %l1
	bg mul
	mov %l0, %i0
	b done
base:
	mov 1, %i0
done:
	restore %i0, 0, %o0
	retl
`
	m := runDTSVLIW(t, src, IdealConfig(8, 8))
	if m.St.ExitCode != 20*120 {
		t.Fatalf("exit = %d, want %d", m.St.ExitCode, 20*120)
	}
	if m.Stats.VLIWCycles == 0 {
		t.Error("recursive loop never reached VLIW mode")
	}
}

// TestAliasingRecovery forces a load/store aliasing exception: a store
// through a pointer that aliases a later load's address only on some
// iterations, so the address seen at schedule time differs from the
// address at VLIW execution time.
func TestAliasingRecovery(t *testing.T) {
	src := `
	.data 0x40000
buf:	.word 10, 20, 30, 40, 50, 60, 70, 80
idx:	.word 0
	.text 0x1000
start:
	set buf, %l0
	mov 0, %l3          ! loop counter
	mov 0, %o0          ! checksum
loop:
	! store through a varying pointer, then load a fixed slot: on the
	! iteration where they collide the scheduled order is wrong.
	and %l3, 7, %l1
	sll %l1, 2, %l1     ! byte offset cycling through the buffer
	add %l3, 100, %l2
	st %l2, [%l0+%l1]   ! store buf[i%8] = 100+i
	ld [%l0+12], %l4    ! load buf[3]
	add %o0, %l4, %o0
	add %l3, 1, %l3
	cmp %l3, 64
	bl loop
	ta 0
`
	m := runDTSVLIW(t, src, IdealConfig(8, 8))
	// Correctness is established by lockstep test mode; just confirm the
	// aliasing machinery engaged.
	t.Logf("aliasing exceptions: %d, IPC %.2f", m.Stats.AliasingExceptions, m.Stats.IPC())
}

// TestOutputOrdering checks that putchar traps (non-schedulable) keep
// their sequential order around VLIW-executed code.
func TestOutputOrdering(t *testing.T) {
	src := `
	.text 0x1000
start:
	mov 0, %l0
loop:
	add %l0, 65, %o0
	ta 1
	mov 3, %l1
inner:
	subcc %l1, 1, %l1
	bg inner
	add %l0, 1, %l0
	cmp %l0, 8
	bl loop
	mov 0, %o0
	ta 0
`
	m := runDTSVLIW(t, src, IdealConfig(4, 4))
	if got := string(m.St.Output); got != "ABCDEFGH" {
		t.Fatalf("output = %q, want ABCDEFGH", got)
	}
}

// TestFeasibleConfig runs the feasible machine (real caches, FU classes).
func TestFeasibleConfig(t *testing.T) {
	m := runDTSVLIW(t, sumLoop, FeasibleConfig())
	if m.St.ExitCode != 55 {
		t.Fatalf("sum = %d, want 55", m.St.ExitCode)
	}
}

// TestMaxInstrsStopsCleanly checks the instruction-budget stop used by the
// experiment harness.
func TestMaxInstrsStopsCleanly(t *testing.T) {
	src := `
	.text 0x1000
start:
	mov 0, %o0
loop:
	add %o0, 1, %o0
	ba loop
`
	cfg := IdealConfig(4, 4)
	cfg.TestMode = true
	cfg.MaxInstrs = 10_000
	cfg.MaxCycles = 10_000_000
	st := buildState(t, src, cfg.NWin)
	m, err := NewMachine(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Stats.Retired < 10_000 {
		t.Fatalf("retired %d, want >= 10000", m.Stats.Retired)
	}
}

// TestConfigValidate: the reference configurations validate, and every
// malformed field is refused before a machine is built. A negative cycle
// cost, a geometry too large for the lowered form and the removed
// interpreted engine are typed ConfigErrors naming the field.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		ok     bool
		field  string // non-empty: the error must be a ConfigError on it
	}{
		{"ideal", func(*Config) {}, true, ""},
		{"feasible", func(c *Config) { *c = FeasibleConfig() }, true, ""},
		{"zero-penalties", func(c *Config) { c.SwitchToVLIW, c.SwitchToPrimary = 0, 0 }, true, ""},
		{"zero-geometry", func(c *Config) { c.Width = 0 }, false, ""},
		{"one-window", func(c *Config) { c.NWin = 1 }, false, ""},
		{"no-vcache", func(c *Config) { c.VCacheKB = 0 }, false, ""},
		{"fu-count", func(c *Config) { *c = FeasibleConfig(); c.Width = 8 }, false, ""},
		{"negative-switch-to-vliw", func(c *Config) { c.SwitchToVLIW = -1 }, false, "SwitchToVLIW"},
		{"negative-switch-to-primary", func(c *Config) { c.SwitchToPrimary = -3 }, false, "SwitchToPrimary"},
		{"negative-next-li-miss", func(c *Config) { *c = FeasibleConfig(); c.NextLIMissPenalty = -1 }, false, "NextLIMissPenalty"},
		{"largest-lowerable-geometry", func(c *Config) { c.Width, c.Height = 5, vliw.MaxBlockSlots/5 }, true, ""},
		{"smallest-unlowerable-geometry", func(c *Config) { c.Width, c.Height = 2, vliw.MaxBlockSlots/2+1 }, false, "Width*Height"},
		{"interpreted-engine", func(c *Config) { c.InterpretedEngine = true }, false, "InterpretedEngine"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := IdealConfig(4, 4)
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.ok {
				if err != nil {
					t.Fatalf("valid config refused: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if tc.field != "" {
				var ce *ConfigError
				if !errors.As(err, &ce) || ce.Field != tc.field || ce.Reason == "" {
					t.Fatalf("got %v, want a ConfigError with a reason on %s", err, tc.field)
				}
			}
			if _, err := NewMachine(cfg, buildState(t, sumLoop, 16)); err == nil {
				t.Fatal("NewMachine accepted an invalid config")
			}
		})
	}
}

// TestSaveBlockRefusesUnlowerableBlock: lowering is total, so a block
// that vliw.LowerInto refuses (here a hand-built LDSTUB, which the
// Scheduler Unit never places) fails the save with a LoweringError
// instead of reaching the VLIW Cache.
func TestSaveBlockRefusesUnlowerableBlock(t *testing.T) {
	m, err := NewMachine(IdealConfig(4, 4), buildState(t, sumLoop, 16))
	if err != nil {
		t.Fatal(err)
	}
	s := &sched.Slot{Inst: isa.Inst{Op: isa.OpLDSTUB, Rd: 2, Rs1: 6, UseImm: true},
		Addr: 0x1000, IsMem: true, MemSize: 1}
	b := &sched.Block{Tag: 0x1000, LIs: [][]*sched.Slot{{s}}, NumLIs: 1, ValidOps: 1}
	err = m.saveBlock(b)
	var le *LoweringError
	if !errors.As(err, &le) || le.Tag != 0x1000 {
		t.Fatalf("saveBlock returned %v, want a LoweringError for block 0x1000", err)
	}
	if _, hit := m.vc.Lookup(0x1000, 0); hit || m.Stats.BlocksSaved != 0 {
		t.Fatal("an unlowerable block reached the VLIW Cache")
	}
}

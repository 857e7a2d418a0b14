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
	"dtsvliw/internal/telemetry"
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
// malformed field is refused before a machine is built, as a typed
// ConfigError that names the field and gives a reason.
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
		{"zero-geometry", func(c *Config) { c.Width = 0 }, false, "Width"},
		{"one-window", func(c *Config) { c.NWin = 1 }, false, "NWin"},
		{"most-windows", func(c *Config) { c.NWin = 32 }, true, ""},
		{"too-many-windows", func(c *Config) { c.NWin = 33 }, false, "NWin"},
		{"no-vcache", func(c *Config) { c.VCacheKB = 0 }, false, "VCacheKB"},
		{"fu-count", func(c *Config) { *c = FeasibleConfig(); c.Width = 8 }, false, "FUs"},
		{"fu-class-uncovered", func(c *Config) { *c = FeasibleConfig(); c.FUs[6], c.FUs[7] = isa.FUInt, isa.FUInt }, false, "FUs"},
		{"fu-class-unknown", func(c *Config) { *c = FeasibleConfig(); c.FUs[0] = isa.FUAny + 1 }, false, "FUs"},
		{"width-above-slot-masks", func(c *Config) { c.Width, c.Height = sched.WidthLimit+1, 1 }, false, "Width"},
		{"negative-not-taken-bubble", func(c *Config) { c.Pipeline.NotTakenBranchBubble = -4 }, false, "Pipeline.NotTakenBranchBubble"},
		{"negative-load-use-bubble", func(c *Config) { c.Pipeline.LoadUseBubble = -1 }, false, "Pipeline.LoadUseBubble"},
		{"negative-load-latency", func(c *Config) { c.LoadLatency = -2 }, false, "LoadLatency"},
		{"negative-fp-latency", func(c *Config) { c.FPLatency = -1 }, false, "FPLatency"},
		{"negative-fpdiv-latency", func(c *Config) { c.FPDivLatency = -1 }, false, "FPDivLatency"},
		{"largest-latency", func(c *Config) { c.LoadLatency = sched.LatencyLimit }, true, ""},
		{"load-latency-above-bound", func(c *Config) { c.LoadLatency = 100 }, false, "LoadLatency"},
		{"fpdiv-latency-above-bound", func(c *Config) { c.FPDivLatency = sched.LatencyLimit + 1 }, false, "FPDivLatency"},
		{"pipeline-load-latency", func(c *Config) { c.Pipeline.LoadLatency = 3 }, false, "Pipeline.LoadLatency"},
		{"pipeline-fp-latency", func(c *Config) { c.Pipeline.FPLatency = 2 }, false, "Pipeline.FPLatency"},
		{"pipeline-fpdiv-latency", func(c *Config) { c.Pipeline.FPDivLatency = 4 }, false, "Pipeline.FPDivLatency"},
		{"unknown-strategy", func(c *Config) { c.SchedStrategy = "no-such-strategy" }, false, "SchedStrategy"},
		{"unknown-store-scheme", func(c *Config) { c.StoreScheme = vliw.SchemeStoreList + 1 }, false, "StoreScheme"},
		{"negative-switch-to-vliw", func(c *Config) { c.SwitchToVLIW = -1 }, false, "SwitchToVLIW"},
		{"negative-switch-to-primary", func(c *Config) { c.SwitchToPrimary = -3 }, false, "SwitchToPrimary"},
		{"negative-next-li-miss", func(c *Config) { *c = FeasibleConfig(); c.NextLIMissPenalty = -1 }, false, "NextLIMissPenalty"},
		{"largest-lowerable-geometry", func(c *Config) { c.Width, c.Height = 5, vliw.MaxBlockSlots/5 }, true, ""},
		{"smallest-unlowerable-geometry", func(c *Config) { c.Width, c.Height = 2, vliw.MaxBlockSlots/2+1 }, false, "Width*Height"},
		{"interpreted-engine", func(c *Config) { c.InterpretedEngine = true }, false, "InterpretedEngine"},
		{"icache-line-not-power-of-two", func(c *Config) { *c = FeasibleConfig(); c.ICache.LineBytes = 48 }, false, "ICache"},
		{"dcache-zero-assoc", func(c *Config) { *c = FeasibleConfig(); c.DCache.Assoc = 0 }, false, "DCache"},
		{"unknown-fault", func(c *Config) { c.Fault = sched.FaultLatencyViolation + 1 }, false, "Fault"},
		// Ring sizes are only validated here, never built: a collector
		// of 1<<62+1 events would never finish rounding its size up.
		{"default-telemetry-ring", func(c *Config) { c.Telemetry = &telemetry.Config{} }, true, ""},
		{"largest-telemetry-ring", func(c *Config) { c.Telemetry = &telemetry.Config{RingSize: telemetry.MaxRingSize} }, true, ""},
		{"negative-telemetry-ring", func(c *Config) { c.Telemetry = &telemetry.Config{RingSize: -1} }, false, "Telemetry.RingSize"},
		{"telemetry-ring-above-bound", func(c *Config) { c.Telemetry = &telemetry.Config{RingSize: telemetry.MaxRingSize + 1} }, false, "Telemetry.RingSize"},
		{"telemetry-ring-past-rounding", func(c *Config) { c.Telemetry = &telemetry.Config{RingSize: 1<<62 + 1} }, false, "Telemetry.RingSize"},
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

// unlowerableBlock hand-builds a one-slot LDSTUB block tagged tag, which
// the Scheduler Unit never places and vliw.LowerInto refuses.
func unlowerableBlock(tag uint32) *sched.Block {
	s := &sched.Slot{Inst: isa.Inst{Op: isa.OpLDSTUB, Rd: 2, Rs1: 6, UseImm: true},
		Addr: tag, IsMem: true, MemSize: 1}
	return &sched.Block{Tag: tag, LIs: [][]*sched.Slot{{s}}, NumLIs: 1, ValidOps: 1}
}

// TestSaveBlockRefusesUnlowerableBlock: lowering is total, so a block
// that vliw.LowerInto refuses fails the run with a LoweringError. The
// machine lowers a block on its first entry, so without VerifyBlocks the
// save caches the block and the run fails when the VLIW Engine first
// enters it, at the program's entry PC. VerifyBlocks lowers at save, so
// there the save refuses the block and it never reaches the VLIW Cache.
func TestSaveBlockRefusesUnlowerableBlock(t *testing.T) {
	wantLoweringError := func(t *testing.T, what string, err error) {
		t.Helper()
		var le *LoweringError
		if !errors.As(err, &le) || le.Tag != 0x1000 {
			t.Fatalf("%s returned %v, want a LoweringError for block 0x1000", what, err)
		}
	}
	t.Run("first-entry", func(t *testing.T) {
		m, err := NewMachine(IdealConfig(4, 4), buildState(t, sumLoop, 16))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.saveBlock(unlowerableBlock(0x1000)); err != nil {
			t.Fatalf("saveBlock returned %v; without VerifyBlocks a block is lowered at entry", err)
		}
		if _, hit := m.vc.Probe(0x1000, 0); !hit {
			t.Fatal("the saved block is not in the VLIW Cache")
		}
		wantLoweringError(t, "Run", m.Run())
		if m.eng.Stats.BlocksEntered != 0 {
			t.Fatal("the VLIW Engine entered an unlowerable block")
		}
	})
	t.Run("verify-blocks", func(t *testing.T) {
		cfg := IdealConfig(4, 4)
		cfg.VerifyBlocks = true
		m, err := NewMachine(cfg, buildState(t, sumLoop, 16))
		if err != nil {
			t.Fatal(err)
		}
		wantLoweringError(t, "saveBlock", m.saveBlock(unlowerableBlock(0x1000)))
		if _, hit := m.vc.Lookup(0x1000, 0); hit || m.Stats.BlocksSaved != 0 {
			t.Fatal("an unlowerable block reached the VLIW Cache")
		}
	})
}

package core

import (
	"testing"

	"dtsvliw/internal/primary"
	"dtsvliw/internal/sched"
)

// TestCycleAttribution: primary + VLIW cycles account for every cycle.
func TestCycleAttribution(t *testing.T) {
	m := runDTSVLIW(t, sumLoop, IdealConfig(4, 4))
	s := m.Stats
	if s.PrimaryCycles+s.VLIWCycles != s.Cycles {
		t.Fatalf("cycles %d != primary %d + vliw %d",
			s.Cycles, s.PrimaryCycles, s.VLIWCycles)
	}
	if s.Cycles == 0 || s.Retired == 0 {
		t.Fatal("empty run")
	}
}

// TestSwitchAccounting: engine handovers come in pairs (to VLIW and back)
// give or take the final state, and each charges cycles.
func TestSwitchAccounting(t *testing.T) {
	m := runDTSVLIW(t, sumLoop, IdealConfig(4, 4))
	s := m.Stats
	if s.Switches == 0 {
		t.Fatal("no engine switches in a hot loop")
	}
	if s.SwitchCycles == 0 {
		t.Fatal("switches did not charge cycles")
	}
	minCost := uint64(min(primary.SwitchToVLIW, primary.SwitchToPrimary))
	if s.SwitchCycles < s.Switches*minCost {
		t.Fatalf("switch cycles %d too low for %d switches", s.SwitchCycles, s.Switches)
	}
}

// TestBlockHookSeesEveryBlock: the hook observes exactly BlocksSaved
// blocks, each structurally sound.
func TestBlockHookSeesEveryBlock(t *testing.T) {
	cfg := IdealConfig(4, 4)
	cfg.TestMode = true
	cfg.MaxCycles = 1 << 30
	st := buildState(t, sumLoop, cfg.NWin)
	m, err := NewMachine(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	var seen uint64
	m.BlockHook = func(b *sched.Block) {
		seen++
		if b.NumLIs <= 0 || b.NumLIs > 4 {
			t.Errorf("block %#x has %d LIs", b.Tag, b.NumLIs)
		}
		if b.EndSeq <= b.FirstSeq {
			t.Errorf("block %#x empty trace span [%d,%d)", b.Tag, b.FirstSeq, b.EndSeq)
		}
		if b.NBA.Line != b.NumLIs-1 {
			t.Errorf("block %#x nba line %d != last LI %d", b.Tag, b.NBA.Line, b.NumLIs-1)
		}
		if b.Dump() == "" {
			t.Error("empty dump")
		}
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if seen != m.Stats.BlocksSaved {
		t.Fatalf("hook saw %d blocks, machine saved %d", seen, m.Stats.BlocksSaved)
	}
}

// TestDrainStallAccounting: back-to-back full flushes on a tiny block
// force the Primary Processor to wait for the one-LI-per-cycle drain.
func TestDrainStallAccounting(t *testing.T) {
	// A long chain of dependent instructions: every instruction opens an
	// element, so a 1-wide, 2-deep list flushes every two instructions —
	// faster than the 2-cycle drain can complete.
	src := `
	.text 0x1000
start:
	mov 1, %o0
	add %o0, 1, %o0
	add %o0, 1, %o0
	add %o0, 1, %o0
	add %o0, 1, %o0
	add %o0, 1, %o0
	add %o0, 1, %o0
	add %o0, 1, %o0
	add %o0, 1, %o0
	ta 0
`
	m := runDTSVLIW(t, src, IdealConfig(1, 2))
	if m.Stats.DrainStalls == 0 {
		t.Fatal("expected drain stalls with back-to-back flushes")
	}
}

// TestVCacheStatsFlow: cache probe statistics reach the machine stats.
func TestVCacheStatsFlow(t *testing.T) {
	m := runDTSVLIW(t, sumLoop, IdealConfig(4, 4))
	if m.Stats.VCacheHits == 0 {
		t.Fatal("hot loop never hit the VLIW Cache")
	}
	if m.Stats.VCacheMisses == 0 {
		t.Fatal("cold start should miss")
	}
}

// TestRetiredMatchesReference: machine-side retirement accounting equals
// the test machine's instruction count at halt.
func TestRetiredMatchesReference(t *testing.T) {
	m := runDTSVLIW(t, sumLoop, IdealConfig(8, 4))
	if m.Stats.Retired != m.test.Retired() {
		t.Fatalf("retired %d != test machine retired %d", m.Stats.Retired, m.test.Retired())
	}
}

// TestIdenticalRunsAreDeterministic: two runs of the same configuration
// produce identical cycle counts.
func TestIdenticalRunsAreDeterministic(t *testing.T) {
	a := runDTSVLIW(t, sumLoop, IdealConfig(4, 4))
	b := runDTSVLIW(t, sumLoop, IdealConfig(4, 4))
	if a.Stats.Cycles != b.Stats.Cycles || a.Stats.Retired != b.Stats.Retired {
		t.Fatalf("non-deterministic: %d/%d vs %d/%d cycles/retired",
			a.Stats.Cycles, a.Stats.Retired, b.Stats.Cycles, b.Stats.Retired)
	}
}

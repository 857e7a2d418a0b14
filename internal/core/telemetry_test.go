package core

import (
	"testing"

	"dtsvliw/internal/telemetry"
	"dtsvliw/internal/workloads"
)

// telemetryConfig returns cfg with a telemetry collector attached.
func telemetryConfig(cfg Config, ring int) Config {
	cfg.Telemetry = &telemetry.Config{RingSize: ring}
	return cfg
}

// TestTelemetryDisabledByDefault checks that machines built without
// Config.Telemetry carry no collector.
func TestTelemetryDisabledByDefault(t *testing.T) {
	m := runDTSVLIW(t, sumLoop, IdealConfig(4, 4))
	if m.Telemetry() != nil {
		t.Fatal("Telemetry() non-nil without Config.Telemetry")
	}
}

// TestTelemetryHandoverOrdering runs a Primary→VLIW→Primary trace and
// checks the event stream: cycle stamps monotone non-decreasing across
// the whole trace (including the one-cycle trace-exit bubble), handover
// events alternating in direction, and every block-entered event falling
// inside a VLIW residency.
func TestTelemetryHandoverOrdering(t *testing.T) {
	cfg := telemetryConfig(IdealConfig(4, 4), 1<<20)
	m := runDTSVLIW(t, sumLoop, cfg)
	tel := m.Telemetry()
	if tel == nil {
		t.Fatal("Telemetry() nil with Config.Telemetry set")
	}
	evs := tel.Events()
	if tel.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; enlarge the test ring", tel.Dropped())
	}
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}

	var last uint64
	var toVLIW, toPrim int
	inVLIW := false
	for i, e := range evs {
		if e.Cycle < last {
			t.Fatalf("event %d (%v) at cycle %d after cycle %d: stamps not monotone",
				i, e.Kind, e.Cycle, last)
		}
		last = e.Cycle
		switch e.Kind {
		case telemetry.EvHandoverToVLIW:
			if inVLIW {
				t.Fatalf("event %d: handover to VLIW while already in VLIW mode", i)
			}
			inVLIW = true
			toVLIW++
		case telemetry.EvHandoverToPrim:
			if !inVLIW {
				t.Fatalf("event %d: handover to Primary while already in Primary mode", i)
			}
			inVLIW = false
			toPrim++
		case telemetry.EvBlockEntered:
			if !inVLIW {
				t.Fatalf("event %d: block entered outside a VLIW residency", i)
			}
		}
	}
	if toVLIW == 0 || toPrim == 0 {
		t.Fatalf("no full Primary→VLIW→Primary round trip (%d to-VLIW, %d to-Primary)",
			toVLIW, toPrim)
	}
	if d := toVLIW - toPrim; d != 0 && d != 1 {
		t.Errorf("handover directions unbalanced: %d to-VLIW vs %d to-Primary", toVLIW, toPrim)
	}
	if toVLIW+toPrim != int(m.Stats.Switches) {
		t.Errorf("handover events %d != Stats.Switches %d", toVLIW+toPrim, m.Stats.Switches)
	}
}

// TestTelemetryCycleReconciliation checks the acceptance criterion: the
// per-block cycle totals reconcile with Stats.VLIWCycles exactly, with
// zero orphan cycles, across configurations (feasible and ideal
// machines, exit prediction) and workloads.
func TestTelemetryCycleReconciliation(t *testing.T) {
	configs := map[string]Config{
		"ideal-8x8": IdealConfig(8, 8),
		"feasible":  FeasibleConfig(),
		"exit-pred": func() Config { c := IdealConfig(8, 8); c.ExitPrediction = true; return c }(),
	}
	for name, cfg := range configs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, w := range workloads.All()[:3] {
				c := telemetryConfig(cfg, 1024) // small ring: dropping events must not skew the ledger
				c.MaxInstrs = 50_000
				c.MaxCycles = 1 << 40
				st, err := w.NewState(c.NWin)
				if err != nil {
					t.Fatal(err)
				}
				m, err := NewMachine(c, st)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Run(); err != nil {
					t.Fatal(err)
				}
				tel := m.Telemetry()
				if got := tel.OrphanCycles(); got != 0 {
					t.Errorf("%s: %d orphan VLIW cycles, want 0", w.Name, got)
				}
				if got, want := tel.TotalBlockCycles()+tel.OrphanCycles(), m.Stats.VLIWCycles; got != want {
					t.Errorf("%s: per-block cycles %d != Stats.VLIWCycles %d", w.Name, got, want)
				}
				// The profiled instruction ledger equals the instructions
				// retired in VLIW mode plus those re-covered after
				// exception rollbacks; with no exceptions it is bounded by
				// the total retired count.
				var instrs uint64
				for _, p := range tel.Profiles() {
					instrs += p.Instrs
				}
				if m.Stats.OtherExceptions == 0 && m.Stats.AliasingExceptions == 0 && instrs > m.Stats.Retired {
					t.Errorf("%s: profiled instrs %d > retired %d", w.Name, instrs, m.Stats.Retired)
				}
			}
		})
	}
}

// TestTelemetryStatsAgreement cross-checks telemetry aggregates against
// the machine's own counters on a full workload run.
func TestTelemetryStatsAgreement(t *testing.T) {
	cfg := telemetryConfig(FeasibleConfig(), 1<<20)
	cfg.MaxInstrs = 100_000
	cfg.MaxCycles = 1 << 40
	w := workloads.All()[0]
	st, err := w.NewState(cfg.NWin)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	tel := m.Telemetry()

	var entries, saves, exits, lis, committed uint64
	for _, p := range tel.Profiles() {
		entries += p.Entries
		saves += p.Saves
		exits += p.TraceExits
		lis += p.LIsExecuted
		committed += p.OpsCommitted
	}
	if entries != m.Stats.Engine.BlocksEntered {
		t.Errorf("profile entries %d != Engine.BlocksEntered %d", entries, m.Stats.Engine.BlocksEntered)
	}
	if saves != m.Stats.BlocksSaved {
		t.Errorf("profile saves %d != BlocksSaved %d", saves, m.Stats.BlocksSaved)
	}
	if exits != m.Stats.Engine.TraceExits {
		t.Errorf("profile trace exits %d != Engine.TraceExits %d", exits, m.Stats.Engine.TraceExits)
	}
	if lis != m.Stats.Engine.LIsExecuted {
		t.Errorf("profile LIs %d != Engine.LIsExecuted %d", lis, m.Stats.Engine.LIsExecuted)
	}
	if committed != m.Stats.Engine.OpsCommitted {
		t.Errorf("profile ops committed %d != Engine.OpsCommitted %d", committed, m.Stats.Engine.OpsCommitted)
	}
	// Histogram ledgers against scheduler counters.
	if tel.BlockLen.Count != m.Stats.Sched.BlocksFlushed {
		t.Errorf("BlockLen samples %d != Sched.BlocksFlushed %d",
			tel.BlockLen.Count, m.Stats.Sched.BlocksFlushed)
	}
	if tel.BlockLen.Sum != m.Stats.Sched.FlushedLIs {
		t.Errorf("BlockLen sum %d != Sched.FlushedLIs %d", tel.BlockLen.Sum, m.Stats.Sched.FlushedLIs)
	}
	if tel.Residency.Sum != m.Stats.Sched.Inserted {
		t.Errorf("Residency sum %d != Sched.Inserted %d", tel.Residency.Sum, m.Stats.Sched.Inserted)
	}
}

// TestTelemetryGeometryInStats checks the satellite fix: the scheduler
// stats carry their own geometry, so SlotUtilisation needs no caller-
// supplied dimensions.
func TestTelemetryGeometryInStats(t *testing.T) {
	m := runDTSVLIW(t, sumLoop, IdealConfig(4, 8))
	if m.Stats.Sched.Width != 4 || m.Stats.Sched.Height != 8 {
		t.Fatalf("Sched geometry = %dx%d, want 4x8", m.Stats.Sched.Width, m.Stats.Sched.Height)
	}
	if m.Stats.Sched.BlocksFlushed > 0 && m.Stats.SlotUtilisation() <= 0 {
		t.Error("SlotUtilisation() = 0 with flushed blocks")
	}
}

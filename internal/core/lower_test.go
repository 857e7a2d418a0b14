package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"dtsvliw/internal/asm"
	"dtsvliw/internal/progen"
	"dtsvliw/internal/sched"
	"dtsvliw/internal/vcache"
)

// TestUnenteredBlocksStayUnlowered: the machine lowers a block on its
// first entry, so a VLIW Cache line whose tag the VLIW Engine never
// entered holds no lowered form, and a lowered form on a line is that
// line's block's. Across every progen shape on both machines some saved
// blocks are never entered, so some lines stay unlowered.
func TestUnenteredBlocksStayUnlowered(t *testing.T) {
	var lowered, unlowered int
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"ideal-8x8", IdealConfig(8, 8)},
		{"feasible", FeasibleConfig()},
	} {
		for _, shape := range progen.Shapes() {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/%s/seed%d", c.name, shape, seed)
				cfg := telemetryConfig(c.cfg, 1)
				m, err := NewMachine(cfg, buildState(t, progen.Generate(progen.ShapeParams(shape, seed)), cfg.NWin))
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Run(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				m.VCache().Drain(func(ent vcache.Entry) {
					switch {
					case ent.Low == nil:
						unlowered++
					case ent.Prof.Entries == 0:
						t.Errorf("%s: block %#08x was lowered but never entered", name, ent.Blk.Tag)
					case ent.Low.Block() != ent.Blk:
						t.Errorf("%s: the line of block %#08x holds another block's lowered form", name, ent.Blk.Tag)
					default:
						lowered++
					}
				})
			}
		}
	}
	t.Logf("%d lines lowered, %d unlowered", lowered, unlowered)
	if lowered == 0 || unlowered == 0 {
		t.Fatalf("%d lines lowered and %d unlowered, want some of each", lowered, unlowered)
	}
}

// TestProbeHitLineReplacedBeforeEntry: on a probe hit the machine saves
// the flushed block before the VLIW Engine enters the hit block, and on a
// small direct-mapped VLIW Cache that save often replaces the hit line.
// The hit block is then lowered on entry, but its form must not be
// recorded on the line, which holds another block now. TestMode holds
// every run to sequential execution.
func TestProbeHitLineReplacedBeforeEntry(t *testing.T) {
	replaced := 0
	for _, kb := range []int{1, 2, 4} {
		cfg := IdealConfig(8, 8)
		cfg.VCacheKB, cfg.VCacheAssoc = kb, 1
		cfg.TestMode = true
		cfg.MaxCycles = 50_000_000
		for _, shape := range progen.Shapes() {
			for seed := int64(0); seed < 40; seed++ {
				src := progen.Generate(progen.ShapeParams(shape, seed))
				m, err := NewMachine(cfg, buildState(t, src, cfg.NWin))
				if err != nil {
					t.Fatal(err)
				}
				probeHits := uint64(0)
				m.BlockHook = func(b *sched.Block) {
					// A probe hit counts its flush just before saving the
					// flushed block, while PC still holds the hit address.
					if m.Stats.FlushesProbeHit == probeHits {
						return
					}
					probeHits = m.Stats.FlushesProbeHit
					if ent, ok := m.vc.Probe(m.St.PC, m.St.CWP()); !ok || ent.Blk == b {
						replaced++
					}
				}
				if err := m.Run(); err != nil {
					t.Fatalf("%d KB/%s/seed%d: %v", kb, shape, seed, err)
				}
			}
		}
	}
	t.Logf("%d probe-hit saves replaced the hit line", replaced)
	if replaced == 0 {
		t.Fatal("no probe-hit save replaced the hit line, so the case went untested")
	}
}

// TestPooledContextAfterLoweringError: a pooled run that fails at a
// block's first entry with a LoweringError leaves that block unlowered
// in the VLIW Cache. Recycling the context drains it, and a good program
// rerun on the context gives a fresh context's Stats.
func TestPooledContextAfterLoweringError(t *testing.T) {
	cfg := IdealConfig(4, 4)
	bad, err := asm.Assemble(sumLoop)
	if err != nil {
		t.Fatal(err)
	}
	good, err := asm.Assemble(progen.Generate(progen.ShapeParams(progen.ShapeMixed, 1)))
	if err != nil {
		t.Fatal(err)
	}
	run := func(ctx *MachineContext, p *asm.Program, before func(*Machine)) (*Machine, error) {
		t.Helper()
		ctx.State().LoadProgram(p)
		m, err := ctx.Prepare()
		if err != nil {
			t.Fatal(err)
		}
		if before != nil {
			before(m)
		}
		return m, m.Run()
	}

	ctx, err := NewMachineContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = run(ctx, bad, func(m *Machine) {
		if err := m.saveBlock(unlowerableBlock(bad.Entry)); err != nil {
			t.Fatal(err)
		}
	})
	var le *LoweringError
	if !errors.As(err, &le) {
		t.Fatalf("run with an unlowerable entry block returned %v, want a LoweringError", err)
	}
	ctx.Recycle()
	m, err := run(ctx, good, nil)
	if err != nil {
		t.Fatalf("rerun on the recycled context: %v", err)
	}

	fresh, err := NewMachineContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := run(fresh, good, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Stats, want.Stats) {
		t.Fatalf("recycled context's stats differ from a fresh context's:\nrecycled: %+v\nfresh:    %+v", m.Stats, want.Stats)
	}
}

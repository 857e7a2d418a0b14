package sched

import (
	"testing"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/asm"
	"dtsvliw/internal/isa"
	"dtsvliw/internal/mem"
	"dtsvliw/internal/progen"
)

// feedEvent is one pre-recorded Scheduler Unit stimulus: either a completed
// schedulable instruction or a flush (non-schedulable instruction reached).
type feedEvent struct {
	flush bool
	c     Completed
}

// feedConfig is the scheduler geometry the feed benchmarks run under: the
// feasible machine's 10x8 block with its heterogeneous functional units.
func feedConfig() Config {
	return Config{
		Width: 10, Height: 8, NWin: 8,
		FUs: []isa.FUClass{
			isa.FUInt, isa.FUInt, isa.FUInt, isa.FUInt,
			isa.FULoadStore, isa.FULoadStore,
			isa.FUFloat, isa.FUFloat,
			isa.FUBranch, isa.FUBranch,
		},
	}
}

// shapeConfig is feedConfig with multicycle latencies for the multicycle
// shape, whose programs exist to exercise them.
func shapeConfig(shape progen.Shape) Config {
	cfg := feedConfig()
	if shape == progen.ShapeMulticycle {
		cfg.LoadLatency = 2
		cfg.FPLatency = 3
		cfg.FPDivLatency = 8
	}
	return cfg
}

// recordTrace executes a seeded progen program sequentially and records the
// exact stimulus stream the Primary Processor would feed the Scheduler
// Unit, so benchmark iterations measure scheduler cost alone.
func recordTrace(tb testing.TB, shape progen.Shape, seed int64, maxInstr int) []feedEvent {
	tb.Helper()
	return recordTraceNWin(tb, shape, seed, maxInstr, 8)
}

// recordTraceNWin is recordTrace on a machine with nwin register windows;
// the scheduler replaying it must be configured with the same NWin.
func recordTraceNWin(tb testing.TB, shape progen.Shape, seed int64, maxInstr, nwin int) []feedEvent {
	tb.Helper()
	src := progen.Generate(progen.ShapeParams(shape, seed))
	p, err := asm.Assemble(src)
	if err != nil {
		tb.Fatalf("assemble: %v", err)
	}
	m := mem.NewMemory()
	p.Load(m)
	m.Map(0x7E000, 0x2000)
	st := arch.NewState(nwin, m)
	st.PC = p.Entry
	st.SetReg(14, 0x7FF00)
	st.SetTextRange(p.TextBase, p.TextSize)

	var events []feedEvent
	for i := 0; i < maxInstr && !st.Halted; i++ {
		pc := st.PC
		cwp := st.CWP()
		in, out, err := st.StepOutcome()
		if err != nil {
			tb.Fatalf("step %d: %v", i, err)
		}
		if !in.IsSchedulable() {
			events = append(events, feedEvent{flush: true, c: Completed{Addr: pc, Seq: uint64(i)}})
			continue
		}
		events = append(events, feedEvent{
			c: Completed{Inst: in, Addr: pc, CWP: cwp, Outcome: out, Seq: uint64(i)},
		})
	}
	if len(events) == 0 {
		tb.Fatalf("empty trace for shape %v seed %d", shape, seed)
	}
	return events
}

// replay feeds one recorded trace through a scheduler.
func replay(tb testing.TB, u *Scheduler, events []feedEvent) {
	for i := range events {
		ev := &events[i]
		if ev.flush {
			u.Flush(ev.c.Addr, ev.c.Seq)
			continue
		}
		if _, err := u.Insert(ev.c); err != nil {
			tb.Fatal(err)
		}
	}
	u.Flush(0, uint64(len(events)))
}

// replayRecycled resets u and replays one recorded trace through it,
// returning every flushed block to the block pool: the warm path of a
// reused scheduler, as the machine's reset path drives it.
func replayRecycled(tb testing.TB, u *Scheduler, events []feedEvent) {
	u.Reset()
	for i := range events {
		ev := &events[i]
		if ev.flush {
			u.RecycleBlock(u.Flush(ev.c.Addr, ev.c.Seq))
			continue
		}
		b, err := u.Insert(ev.c)
		if err != nil {
			tb.Fatal(err)
		}
		u.RecycleBlock(b)
	}
	u.RecycleBlock(u.Flush(0, uint64(len(events))))
}

// BenchmarkSchedulerFeed measures the Scheduler Unit's insertion hot path
// (dependency checks, move-up/install/split decisions, renaming) on
// pre-recorded traces of every progen hazard shape. Each iteration resets
// one warmed scheduler and replays the trace, recycling every flushed
// block, so the arenas and the block pool are reused rather than grown.
// ns/op is per replay; ns/instr is per completed instruction fed, and
// allocs/op tracks the allocation trajectory of the hot path. The
// repository benchmark's traced runs replay the scheduler over workload
// traces and report the same costs as sched.insert_ns/_allocs
// (bench/README.md).
func BenchmarkSchedulerFeed(b *testing.B) {
	for _, shape := range progen.Shapes() {
		events := recordTrace(b, shape, 1, 40_000)
		b.Run(shape.String(), func(b *testing.B) {
			u, err := New(shapeConfig(shape))
			if err != nil {
				b.Fatal(err)
			}
			replayRecycled(b, u, events) // warm pools, arenas and scratch buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				replayRecycled(b, u, events)
			}
			b.StopTimer()
			perInstr := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(len(events))
			b.ReportMetric(perInstr, "ns/instr")
		})
	}
}

// BenchmarkSchedulerFeedFresh is the cold variant: a fresh Scheduler per
// iteration, so per-block and per-scheduler allocations are charged too.
func BenchmarkSchedulerFeedFresh(b *testing.B) {
	events := recordTrace(b, progen.ShapeMixed, 1, 40_000)
	b.Run("mixed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			u, err := New(feedConfig())
			if err != nil {
				b.Fatal(err)
			}
			replay(b, u, events)
		}
	})
}

package sched

import (
	"cmp"
	"math/bits"
	"slices"
	"testing"

	"dtsvliw/internal/isa"
	"dtsvliw/internal/progen"
)

// idealConfig is the ideal machine's 8x8 geometry: every slot accepts
// every instruction.
func idealConfig(nwin int) Config {
	return Config{Width: 8, Height: 8, NWin: nwin}
}

// indexLocs lists every register and singleton location of the index's
// epoch-stamped table.
func indexLocs(u *Scheduler) []isa.Loc {
	var locs []isa.Loc
	for i := 0; i < u.nPhys; i++ {
		locs = append(locs, isa.IReg(uint16(i)))
	}
	for i := 0; i < 64; i++ {
		locs = append(locs, isa.FReg(uint16(i)))
	}
	for _, k := range []isa.LocKind{isa.LocICC, isa.LocFCC, isa.LocY, isa.LocCWP, isa.LocNone} {
		locs = append(locs, isa.Loc{Kind: k})
	}
	return locs
}

func compareMemAccess(a, b memAccess) int {
	return cmp.Or(cmp.Compare(a.loc.Addr, b.loc.Addr), cmp.Compare(a.loc.Size, b.loc.Size),
		cmp.Compare(a.ready, b.ready), cmp.Compare(a.wlast, b.wlast), cmp.Compare(a.rlast, b.rlast))
}

// checkAggregates recomputes every element's counters and the location
// index from the open block's slots and compares them with the
// incrementally maintained state. Between Insert calls every occupied
// slot is installed.
func checkAggregates(t *testing.T, u *Scheduler, when string) {
	t.Helper()
	want := map[isa.Loc]locEntry{}
	var mem []memAccess
	add := func(l isa.Loc, c locEntry) {
		if l.Kind == isa.LocMem {
			mem = append(mem, memAccess{loc: l, locEntry: c})
			return
		}
		e := want[l]
		e.merge(c)
		want[l] = e
	}
	for ei, e := range u.elems {
		var occMask uint64
		var occ, ctis, mems, stores, loads int
		for i, s := range e.slots {
			if s == nil {
				continue
			}
			occ++
			occMask |= 1 << i
			memCopy := s.IsCopy && hasMemCopy(s)
			if s.IsCondOrIndirectBranch() {
				ctis++
			}
			if s.IsMem || memCopy {
				mems++
			}
			if (s.IsStore && !s.MemRenamed) || memCopy {
				stores++
			}
			if !s.IsCopy && s.IsMem && !s.IsStore {
				loads++
			}
			for _, l := range s.reads {
				add(l, locEntry{rlast: int32(ei + 1)})
			}
			for _, l := range s.writes {
				add(l, locEntry{ready: int32(ei + s.LatOr1()), wlast: int32(ei + 1)})
			}
		}
		if occ != e.occ || occMask != e.occMask {
			t.Fatalf("%s: elem %d: occupancy %d/%#x != cached %d/%#x",
				when, ei, occ, occMask, e.occ, e.occMask)
		}
		if ctis != e.ctis || mems != e.mems || stores != e.stores || loads != e.loads {
			t.Fatalf("%s: elem %d: counters (%d,%d,%d,%d) != cached (%d,%d,%d,%d)",
				when, ei, ctis, mems, stores, loads, e.ctis, e.mems, e.stores, e.loads)
		}
	}

	locs := indexLocs(u)
	for cl := range u.renUsed {
		for i := uint16(0); i < u.renUsed[cl]; i++ {
			locs = append(locs, RenLoc(RenameReg{Class: RenameClass(cl), Idx: i}))
		}
	}
	for _, l := range locs {
		if got := u.lookup(l); got != want[l] {
			t.Fatalf("%s: index entry of %v is %+v, rebuilt %+v", when, l, got, want[l])
		}
		delete(want, l)
	}
	for l := range want {
		t.Fatalf("%s: installed location %v has no index entry", when, l)
	}
	got := slices.Clone(u.idxMem)
	slices.SortFunc(got, compareMemAccess)
	slices.SortFunc(mem, compareMemAccess)
	if !slices.Equal(got, mem) {
		t.Fatalf("%s: memory accesses %v, rebuilt %v", when, got, mem)
	}
}

// TestElementAggregatesConsistent replays real traces and revalidates the
// incrementally maintained aggregates of the open block, each element's
// counters and the location index, against a from-scratch recomputation
// after every insertion (install, move-up and split paths all mutate
// them). Every shape runs on the feasible 10x8 machine at 8 windows and
// on the ideal 8x8 machine at 32, whose blocks hand out more renaming
// registers.
func TestElementAggregatesConsistent(t *testing.T) {
	for _, shape := range progen.Shapes() {
		t.Run(shape.String(), func(t *testing.T) {
			ideal := idealConfig(32)
			ideal.LoadLatency, ideal.FPLatency, ideal.FPDivLatency = 2, 3, 8
			for _, cfg := range []Config{shapeConfig(shape), ideal} {
				events := recordTraceNWin(t, shape, 2, 6_000, cfg.NWin)
				u, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := range events {
					ev := &events[i]
					if ev.flush {
						u.Flush(ev.c.Addr, ev.c.Seq)
						continue
					}
					if _, err := u.Insert(ev.c); err != nil {
						t.Fatal(err)
					}
					checkAggregates(t, u, "after insert")
				}
			}
		})
	}
}

// TestDependencyChecksZeroAlloc: once pools and scratch buffers are warm,
// the insertion path performs no heap allocation — neither the
// dependency-check core (index maxima, true, output, anti and
// copy-safety queries) nor whole Insert calls. Each measured run also
// resets one scheduler per progen shape, on the feasible 10x8 and the
// ideal 8x8 geometry at 8 and at 32 windows, and replays that shape's
// recorded trace through Insert/Flush, recycling every flushed block, so
// an allocation anywhere on the write path (an escaping Insert argument,
// a grown arena or index table, a fresh block) fails the guard.
func TestDependencyChecksZeroAlloc(t *testing.T) {
	events := recordTrace(t, progen.ShapeMixed, 1, 20_000)
	u, err := New(feedConfig())
	if err != nil {
		t.Fatal(err)
	}
	replay(t, u, events) // warm pools, arenas and scratch buffers

	// Repopulate the scheduling list and stop with it non-empty.
	for i := range events {
		ev := &events[i]
		if ev.flush {
			continue
		}
		if _, err := u.Insert(ev.c); err != nil {
			t.Fatal(err)
		}
		if u.Len() >= u.cfg.Height-1 {
			break
		}
	}
	if u.Empty() {
		t.Fatal("scheduling list empty after repopulation")
	}
	tail := u.Len() - 1
	e := u.elems[tail]
	slotIdx := bits.TrailingZeros64(e.occMask)
	if slotIdx >= u.cfg.Width {
		t.Fatal("tail element has no installed slot")
	}
	cand := e.slots[slotIdx]

	type feed struct {
		u      *Scheduler
		events []feedEvent
	}
	var feeds []feed
	for _, shape := range progen.Shapes() {
		for _, nwin := range []int{8, 32} {
			feasible := shapeConfig(shape)
			feasible.NWin = nwin
			for _, cfg := range []Config{feasible, idealConfig(nwin)} {
				fu, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				feeds = append(feeds, feed{fu, recordTraceNWin(t, shape, 1, 20_000, nwin)})
			}
		}
	}
	replayAll := func() {
		for _, f := range feeds {
			replayRecycled(t, f.u, f.events)
		}
	}
	replayAll() // warm every feed's slabs, index tables and block pool

	allocs := testing.AllocsPerRun(20, func() {
		u.readMax, u.writeMax = u.maxOver(cand.reads), u.maxOver(cand.writes)
		u.trueDepBlocked(tail)
		u.wawBlocked(cand, tail)
		u.wawCopyUnsafe(tail)
		u.horizonOutputConflicts(cand, tail)
		u.antiConflicts(cand, tail)
		u.memSerialized(cand, e)
		u.freeSlot(e, cand.Inst.Class())
		replayAll()
	})
	if allocs != 0 {
		t.Fatalf("insertion-path steady state allocated %.1f times per run", allocs)
	}
}

// inFlightWriter is the per-slot definition the writer checks implement:
// whether a slot other than cand, placed in an element j with latency lat
// for which keep(j, lat) holds, writes a location of locs. It scans the
// whole list.
func inFlightWriter(u *Scheduler, cand *Slot, locs []isa.Loc, keep func(j, lat int) bool) bool {
	for j, e := range u.elems {
		for _, w := range e.slots {
			if w != nil && w != cand && keep(j, w.LatOr1()) && overlapAny(locs, w.writes) {
				return true
			}
		}
	}
	return false
}

// conflictsDef is the per-slot definition of a conflict collection: the
// candidate's write locations, in order, that hit(w) accepts.
func conflictsDef(cand *Slot, hit func(w isa.Loc) bool) []isa.Loc {
	var out []isa.Loc
	for _, w := range cand.writes {
		if hit(w) {
			out = append(out, w)
		}
	}
	return out
}

// decisionCheck compares each dependency check the scheduler answers from
// its index with the per-slot definition of its rule, at every decision
// Insert takes, and counts the answers of each.
type decisionCheck struct {
	t         *testing.T
	u         *Scheduler
	decisions int
	answers   map[string][2]int // per check: definitions false, true
	past319   int               // decisions on candidates touching an integer register past 319
}

func (d *decisionCheck) expect(name string, got, want bool, cand *Slot, elem int) {
	if got != want {
		d.t.Fatalf("%s at element %d of %d = %v, definition %v; cand reads %v writes %v lat %d\n%s",
			name, elem, len(d.u.elems), got, want, cand.reads, cand.writes, cand.LatOr1(), d.u.Dump())
	}
	n := d.answers[name]
	if want {
		n[1]++
	} else {
		n[0]++
	}
	d.answers[name] = n
}

func (d *decisionCheck) expectLocs(name string, got, want []isa.Loc, cand *Slot, elem int) {
	if !slices.Equal(got, want) {
		d.t.Fatalf("%s at element %d of %d = %v, definition %v; cand reads %v writes %v\n%s",
			name, elem, len(d.u.elems), got, want, cand.reads, cand.writes, d.u.Dump())
	}
	d.expect(name, len(got) > 0, len(want) > 0, cand, elem)
}

// decide is the scheduler's onDecision hook.
func (d *decisionCheck) decide(cand *Slot, elem int, tail bool) {
	u := d.u
	d.decisions++
	for _, l := range slices.Concat(cand.reads, cand.writes) {
		if l.Kind == isa.LocIReg && l.Idx >= 320 {
			d.past319++
			break
		}
	}
	cl := cand.LatOr1()
	if tail {
		t := elem
		d.expect("trueDepBlocked", u.trueDepBlocked(t),
			inFlightWriter(u, cand, cand.reads, func(j, lat int) bool { return j <= t && j+lat > t }), cand, t)
		d.expect("wawBlocked", u.wawBlocked(cand, t),
			inFlightWriter(u, cand, cand.writes, func(j, lat int) bool { return j == t || j < t && j+lat > t+cl }), cand, t)
		return
	}
	i, t := elem, elem-1
	d.expect("trueDepBlocked", u.trueDepBlocked(t),
		inFlightWriter(u, cand, cand.reads, func(j, lat int) bool { return j <= t && j+lat > t }), cand, t)
	d.expect("wawCopyUnsafe", u.wawCopyUnsafe(i),
		inFlightWriter(u, cand, cand.writes, func(j, lat int) bool { return j < i && j+lat-1 > i }), cand, i)
	d.expectLocs("horizonOutputConflicts", u.horizonOutputConflicts(cand, t), conflictsDef(cand, func(w isa.Loc) bool {
		return inFlightWriter(u, cand, []isa.Loc{w}, func(j, lat int) bool { return j <= t && j+lat > t })
	}), cand, t)
	d.expectLocs("antiConflicts", u.antiConflicts(cand, i), conflictsDef(cand, func(w isa.Loc) bool {
		for _, s := range u.elems[i].slots {
			if s != nil && s != cand && overlapAny([]isa.Loc{w}, s.reads) {
				return true
			}
		}
		return false
	}), cand, i)
}

// TestHorizonChecksMatchDefinition replays real traces and, at every
// dependency decision Insert takes (each tail placement and padding
// element, and each move-up step), compares every check the index
// answers with the per-slot definition of its rule. Every shape runs
// with unit and with multicycle latencies (three cycles or more, so every
// check's window is nonempty) at 8 and at 32 register windows, on the
// feasible 10x8 machine, the ideal 8x8 machine, and the feasible machine
// without source forwarding and with FaultDropCopy (a dropped copy keeps
// the journey invariant; FaultDropRename breaks it on purpose). At 32
// windows the traces use integer registers past 319, where the old
// signature encoding stopped.
func TestHorizonChecksMatchDefinition(t *testing.T) {
	variants := []struct {
		name string
		cfg  func(nwin int) Config
	}{
		{"feasible", func(nwin int) Config { c := feedConfig(); c.NWin = nwin; return c }},
		{"ideal-8x8", idealConfig},
		{"nofwd", func(nwin int) Config { c := feedConfig(); c.NWin, c.NoForwarding = nwin, true; return c }},
		{"dropcopy", func(nwin int) Config { c := feedConfig(); c.NWin, c.Fault = nwin, FaultDropCopy; return c }},
	}
	d := &decisionCheck{t: t, answers: map[string][2]int{}}
	for _, v := range variants {
		for _, shape := range progen.Shapes() {
			for _, multi := range []bool{false, true} {
				for _, nwin := range []int{8, 32} {
					cfg := v.cfg(nwin)
					if multi {
						cfg.LoadLatency, cfg.FPLatency, cfg.FPDivLatency = 3, 3, 8
					}
					for seed := int64(1); seed <= 3; seed++ {
						u, err := New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						d.u = u
						u.onDecision = d.decide
						for _, ev := range recordTraceNWin(t, shape, seed, 3_000, nwin) {
							if ev.flush {
								u.Flush(ev.c.Addr, ev.c.Seq)
								continue
							}
							if _, err := u.Insert(ev.c); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d decisions; per check [definition false, true]: %v", d.decisions, d.answers)
	for _, name := range []string{"trueDepBlocked", "wawBlocked", "wawCopyUnsafe", "horizonOutputConflicts", "antiConflicts"} {
		if n := d.answers[name]; n[0] == 0 || n[1] == 0 {
			t.Errorf("%s: definition false %d and true %d times, want both", name, n[0], n[1])
		}
	}
	if d.past319 == 0 {
		t.Error("no candidate touched an integer register past 319")
	}
}

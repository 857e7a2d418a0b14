package sched

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"dtsvliw/internal/isa"
	"dtsvliw/internal/progen"
)

// randLoc draws one footprint location the way real traces produce them,
// with occasional out-of-encoding strays to exercise the SigOver fallback.
func randLoc(r *rand.Rand) isa.Loc {
	switch r.Intn(10) {
	case 0, 1, 2, 3:
		return isa.IReg(uint16(r.Intn(isa.SigIntWords*64 + 8)))
	case 4:
		return isa.FReg(uint16(r.Intn(66)))
	case 5:
		return isa.Loc{Kind: isa.LocICC}
	case 6:
		return isa.Loc{Kind: isa.LocCWP}
	case 7, 8:
		return isa.MemLoc(uint32(r.Intn(128)), uint8(1+r.Intn(8)))
	default:
		return isa.Loc{Kind: isa.LocRen, Idx: uint16(r.Intn(68)), Addr: uint32(r.Intn(5))}
	}
}

func randLocs(r *rand.Rand) []isa.Loc {
	locs := make([]isa.Loc, r.Intn(5))
	for i := range locs {
		locs[i] = randLoc(r)
	}
	return locs
}

// sigOverlap is the scheduler's composite overlap decision: the exact bits
// first, then the memory-interval compare when both sides carry LocMem,
// then the naive scan when a side overflowed the encoding.
func sigOverlap(a, b []isa.Loc) bool {
	var sa, sb isa.Sig
	sa.AddSet(a)
	sb.AddSet(b)
	if sa.Hit(&sb) {
		return true
	}
	if sa.Over(&sb) {
		return overlapAny(a, b)
	}
	if sa.MemBoth(&sb) {
		for _, l := range a {
			if l.Kind == isa.LocMem && memAnyOverlap(b, l) {
				return true
			}
		}
	}
	return false
}

// TestMaskOverlapMatchesNaive: the bitset overlap predicate is equivalent
// to the naive pairwise Loc scan on random footprints.
func TestMaskOverlapMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200000; i++ {
		a, b := randLocs(r), randLocs(r)
		if got, want := sigOverlap(a, b), overlapAny(a, b); got != want {
			t.Fatalf("sig=%v naive=%v:\n a=%v\n b=%v", got, want, a, b)
		}
	}
}

// checkAggregates recomputes every element's cached signatures and
// counters from its slots and compares them with the incrementally
// maintained state. Between Insert calls every occupied slot is
// installed.
func checkAggregates(t *testing.T, u *Scheduler, when string) {
	t.Helper()
	for ei, e := range u.elems {
		var rsig isa.Sig
		wsig := make([]isa.Sig, u.maxLat+1)
		var latMask, occMask uint64
		var occ, ctis, mems, stores, loads int
		var memW []memWrite
		for i, s := range e.slots {
			if s == nil {
				continue
			}
			occ++
			occMask |= 1 << i
			var sr, sw isa.Sig
			sr.AddSet(s.reads)
			sw.AddSet(s.writes)
			lat := s.LatOr1()
			rsig.Or(&sr)
			wsig[lat].Or(&sw)
			latMask |= 1 << lat
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
			if s.IsMem || s.IsCopy {
				for _, w := range s.writes {
					if w.Kind == isa.LocMem {
						memW = append(memW, memWrite{loc: w, lat: int16(lat)})
					}
				}
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
		if rsig != e.rsig {
			t.Fatalf("%s: elem %d: rsig aggregate stale", when, ei)
		}
		if latMask != e.latMask {
			t.Fatalf("%s: elem %d: latMask %#x != cached %#x", when, ei, latMask, e.latMask)
		}
		for lm := latMask; lm != 0; lm &= lm - 1 {
			l := bits.TrailingZeros64(lm)
			if wsig[l] != e.wsigLat[l] {
				t.Fatalf("%s: elem %d: wsigLat[%d] aggregate stale", when, ei, l)
			}
		}
		if len(memW) != len(e.memW) {
			t.Fatalf("%s: elem %d: %d LocMem writes != %d side-table entries",
				when, ei, len(memW), len(e.memW))
		}
		// The side table holds the same entries in install order.
		left := slices.Clone(e.memW)
		for _, mw := range memW {
			i := slices.Index(left, mw)
			if i < 0 {
				t.Fatalf("%s: elem %d: LocMem write %v (lat %d) missing from the side table",
					when, ei, mw.loc, mw.lat)
			}
			left = slices.Delete(left, i, i+1)
		}
	}
}

// TestElementAggregatesConsistent replays real traces and revalidates the
// incrementally maintained element aggregates against a from-scratch
// recomputation after every insertion (install, move-up and split paths
// all mutate them).
func TestElementAggregatesConsistent(t *testing.T) {
	for _, shape := range progen.Shapes() {
		t.Run(shape.String(), func(t *testing.T) {
			events := recordTrace(t, shape, 2, 6_000)
			u, err := New(shapeConfig(shape))
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
		})
	}
}

// TestDependencyChecksZeroAlloc: once pools and scratch buffers are warm,
// the insertion path performs no heap allocation — neither the
// dependency-check core (true, output, anti and copy-safety queries) nor
// whole Insert calls. Each measured run also resets one scheduler per
// progen shape and replays that shape's recorded trace through
// Insert/Flush, recycling every flushed block, so an allocation anywhere
// on the write path (an escaping Insert argument, a grown arena, a fresh
// block) fails the guard.
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
	u.candR.Reset()
	u.candR.AddSet(cand.reads)
	u.candW.Reset()
	u.candW.AddSet(cand.writes)

	type feed struct {
		u      *Scheduler
		events []feedEvent
	}
	var feeds []feed
	for _, shape := range progen.Shapes() {
		fu, err := New(shapeConfig(shape))
		if err != nil {
			t.Fatal(err)
		}
		feeds = append(feeds, feed{fu, recordTrace(t, shape, 1, 20_000)})
	}
	replayRecycled := func() {
		for _, f := range feeds {
			f.u.Reset()
			for i := range f.events {
				ev := &f.events[i]
				if ev.flush {
					f.u.RecycleBlock(f.u.Flush(ev.c.Addr, ev.c.Seq))
					continue
				}
				b, err := f.u.Insert(ev.c)
				if err != nil {
					t.Fatal(err)
				}
				f.u.RecycleBlock(b)
			}
			f.u.RecycleBlock(f.u.Flush(0, uint64(len(f.events))))
		}
	}
	replayRecycled() // warm every shape's slabs and block pool

	allocs := testing.AllocsPerRun(20, func() {
		u.trueDepBlocked(cand, tail)
		u.wawBlocked(cand, tail)
		u.wawCopyUnsafe(cand, tail)
		u.horizonOutputConflicts(cand, tail)
		u.antiConflicts(cand, e, slotIdx)
		u.memSerialized(cand, e)
		u.freeSlot(e, cand.Inst.Class())
		replayRecycled()
	})
	if allocs != 0 {
		t.Fatalf("insertion-path steady state allocated %.1f times per run", allocs)
	}
}

// inFlightWriter is the per-slot definition the dependency checks
// implement: whether a slot other than cand, installed in an element j
// with latency lat for which keep(j, lat) holds, writes a location of
// locs. It scans the whole list, so it also checks each check's window.
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

// TestHorizonChecksMatchDefinition replays real traces and, after every
// insertion, asks each dependency check about every element for
// candidates shaped like the tail element's slots, comparing the
// signature-based scan with the per-slot definition of its rule. Every
// shape runs with unit and with multicycle latencies (three cycles or
// more, so every check's window is nonempty), at 8 and at 32 register
// windows: at 32 the physical registers pass the exact signature
// encoding, so the scan's overflow fallback decides some of the answers.
func TestHorizonChecksMatchDefinition(t *testing.T) {
	overflowed := 0
	for _, shape := range progen.Shapes() {
		for _, multi := range []bool{false, true} {
			for _, nwin := range []int{8, 32} {
				cfg := feedConfig()
				cfg.NWin = nwin
				if multi {
					cfg.LoadLatency, cfg.FPLatency, cfg.FPDivLatency = 3, 3, 8
				}
				for seed := int64(1); seed <= 3; seed++ {
					u, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					for _, ev := range recordTraceNWin(t, shape, seed, 3_000, nwin) {
						if ev.flush {
							u.Flush(ev.c.Addr, ev.c.Seq)
							continue
						}
						if _, err := u.Insert(ev.c); err != nil {
							t.Fatal(err)
						}
						for _, s := range u.elems[len(u.elems)-1].slots {
							if s != nil {
								overflowed += checkHorizon(t, u, &Slot{Lat: s.Lat, reads: s.reads, writes: s.writes})
							}
						}
					}
				}
			}
		}
	}
	if overflowed == 0 {
		t.Error("no candidate signature overflowed the exact encoding")
	}
}

// checkHorizon compares the four dependency checks for cand against
// their definitions at every element of the list. It returns 1 if cand's
// signatures overflowed the exact encoding.
func checkHorizon(t *testing.T, u *Scheduler, cand *Slot) int {
	t.Helper()
	u.candR.Reset()
	u.candR.AddSet(cand.reads)
	u.candW.Reset()
	u.candW.AddSet(cand.writes)
	cl := cand.LatOr1()
	for tgt := range u.elems {
		checks := []struct {
			name      string
			got, want bool
		}{
			{"trueDepBlocked", u.trueDepBlocked(cand, tgt),
				inFlightWriter(u, cand, cand.reads, func(j, lat int) bool { return j <= tgt && j+lat > tgt })},
			{"wawBlocked", u.wawBlocked(cand, tgt),
				inFlightWriter(u, cand, cand.writes, func(j, lat int) bool { return j == tgt || j < tgt && j+lat > tgt+cl })},
			{"wawCopyUnsafe", u.wawCopyUnsafe(cand, tgt),
				inFlightWriter(u, cand, cand.writes, func(j, lat int) bool { return j < tgt && j+lat-1 > tgt })},
			{"horizonOutputConflicts", len(u.horizonOutputConflicts(cand, tgt)) > 0,
				inFlightWriter(u, cand, cand.writes, func(j, lat int) bool { return j <= tgt && j+lat > tgt })},
		}
		for _, c := range checks {
			if c.got != c.want {
				t.Fatalf("%s(element %d of %d) = %v, definition %v; cand reads %v writes %v lat %d\n%s",
					c.name, tgt, len(u.elems), c.got, c.want, cand.reads, cand.writes, cl, u.Dump())
			}
		}
	}
	if (u.candR.Flags|u.candW.Flags)&isa.SigOver != 0 {
		return 1
	}
	return 0
}

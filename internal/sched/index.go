package sched

import "dtsvliw/internal/isa"

// This file keeps the element counters of the scheduling list and the
// open block's location index: the software stand-in for the paper's
// §3.7 comparator network, which compares every candidate operand with
// every installed slot at once.
//
// The index records, for every location, where its installed writers and
// readers sit (locEntry). Registers and singletons live in an
// epoch-stamped table indexed like the rename table (renIdx), renaming
// registers in one table per class that allocRename extends and clears,
// and memory accesses in one list per block, scanned only for a memory
// footprint. Every location the scheduler sees has an entry. startBlock
// clears the index; within a block it only grows.
//
// As in the hardware, a candidate joins the comparator network only where
// it installs. On its way up it occupies a slot of each element it passes
// and counts in that element's counters (occupy/vacate), but its
// footprint, and those of the copy instructions its splits leave behind,
// enter the index only when it installs at the end of its journey. Every
// query of a journey therefore sees only slots installed before the
// journey began, which is what makes the dependency checks in
// scheduler.go single comparisons (DESIGN §10).

// locEntry is what the index records for one location over the installed
// slots of the open block. Elements count from the scheduling-list head.
type locEntry struct {
	ready int32 // largest element + latency over its writers
	wlast int32 // one past the last element holding a writer
	rlast int32 // one past the last element holding a reader
}

// merge folds o into e.
func (e *locEntry) merge(o locEntry) {
	e.ready = max(e.ready, o.ready)
	e.wlast = max(e.wlast, o.wlast)
	e.rlast = max(e.rlast, o.rlast)
}

// regEntry is a register or singleton entry of the index, live only while
// its epoch matches the scheduler's block epoch (renEpoch).
type regEntry struct {
	locEntry
	epoch uint64
}

// memAccess is one LocMem access of an installed slot, with the entry it
// alone contributes.
type memAccess struct {
	loc isa.Loc
	locEntry
}

// pendingCopy is a copy instruction a journeying candidate's split left in
// element elem; it enters the index when the candidate installs.
type pendingCopy struct {
	s    *Slot
	elem int
}

// occupy puts s into slot idx of e and counts it in the element's
// counters. Its footprint enters the index only through install.
func (e *element) occupy(s *Slot, idx int) {
	e.slots[idx] = s
	e.occ++
	e.occMask |= 1 << idx
	e.count(s, 1)
}

// vacate undoes occupy. It must see the flags occupy counted. The
// branch-tag counter is deliberately not touched: it is cumulative over
// the element's lifetime (paper §3.8), not an aggregate of the current
// occupancy.
func (e *element) vacate(s *Slot, idx int) {
	e.slots[idx] = nil
	e.occ--
	e.occMask &^= 1 << idx
	e.count(s, -1)
}

// count adds d to each counter s contributes to.
func (e *element) count(s *Slot, d int) {
	memCopy := s.IsCopy && hasMemCopy(s)
	if s.IsCondOrIndirectBranch() {
		e.ctis += d
	}
	if s.IsMem || memCopy {
		e.mems += d
	}
	if (s.IsStore && !s.MemRenamed) || memCopy {
		e.stores += d
	}
	if !s.IsCopy && s.IsMem && !s.IsStore {
		e.loads += d
	}
}

// install enters s, which occupies a slot of element j, into the index.
func (u *Scheduler) install(s *Slot, j int) {
	r := locEntry{rlast: int32(j + 1)}
	w := locEntry{ready: int32(j + s.LatOr1()), wlast: int32(j + 1)}
	for _, l := range s.reads {
		u.record(l, r)
	}
	for _, l := range s.writes {
		u.record(l, w)
	}
}

// record merges c into the index's entry for l.
func (u *Scheduler) record(l isa.Loc, c locEntry) {
	switch l.Kind {
	case isa.LocMem:
		u.idxMem = append(u.idxMem, memAccess{loc: l, locEntry: c})
	case isa.LocRen:
		u.idxRen[l.Addr][l.Idx].merge(c)
	default:
		e := &u.idxRegs[u.renIdx(l)]
		if e.epoch != u.renEpoch {
			*e = regEntry{epoch: u.renEpoch}
		}
		e.merge(c)
	}
}

// lookup returns the index's entry for l; for a memory interval, the
// merge of every recorded access it overlaps.
func (u *Scheduler) lookup(l isa.Loc) locEntry {
	switch l.Kind {
	case isa.LocMem:
		var e locEntry
		for i := range u.idxMem {
			if a := &u.idxMem[i]; a.loc.Overlaps(l) {
				e.merge(a.locEntry)
			}
		}
		return e
	case isa.LocRen:
		return u.idxRen[l.Addr][l.Idx]
	}
	if e := &u.idxRegs[u.renIdx(l)]; e.epoch == u.renEpoch {
		return e.locEntry
	}
	return locEntry{}
}

// maxOver returns the index's maxima over the locations of locs.
func (u *Scheduler) maxOver(locs []isa.Loc) locEntry {
	var m locEntry
	for _, l := range locs {
		m.merge(u.lookup(l))
	}
	return m
}

package sched

import "dtsvliw/internal/isa"

// This file maintains the dependency signatures of the scheduling list:
// the word-parallel equivalent of the paper's §3.7 comparator network.
// The candidate instruction's packed read/write bitsets (isa.Sig) live in
// the Scheduler (candR/candW) while it journeys up the list. Every element
// caches the OR of its installed slots' bitsets plus a side table of
// LocMem write intervals (bitsets cannot encode address ranges exactly),
// bucketed by producer latency so the multicycle horizon checks can mask
// out producers whose writeback has already landed.
//
// As in the hardware, a candidate joins the comparator network only where
// it installs. On its way up it occupies a slot of each element it passes
// and counts in that element's counters (occupy/vacate), but its
// signatures join an element's aggregates once, through install. A
// split's copy instruction installs where it is created. The aggregates
// of an open block therefore only grow; releaseElement clears them.

// memWrite is one LocMem entry of an installed slot's write footprint,
// with the producing slot's latency for the horizon filters.
type memWrite struct {
	loc isa.Loc
	lat int16
}

// occupy puts s into slot idx of e and counts it in the element's
// counters. Its signatures join the aggregates only through install.
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

// install folds the footprints of s, which occupies a slot of e, into the
// element's signature aggregates and memory-write side table.
func (e *element) install(s *Slot) {
	lat := s.LatOr1()
	e.rsig.AddSet(s.reads)
	e.wsigLat[lat].AddSet(s.writes)
	e.latMask |= 1 << lat
	if s.IsMem || s.IsCopy {
		for _, w := range s.writes {
			if w.Kind == isa.LocMem {
				e.memW = append(e.memW, memWrite{loc: w, lat: int16(lat)})
			}
		}
	}
}

// memAnyOverlap reports whether any LocMem entry of locs overlaps m, using
// the exact interval rule of isa.Loc.Overlaps.
func memAnyOverlap(locs []isa.Loc, m isa.Loc) bool {
	for _, l := range locs {
		if l.Kind == isa.LocMem && l.Overlaps(m) {
			return true
		}
	}
	return false
}

package sched

// Allocation machinery of the Scheduler Unit hot path. The scheduler
// recycles element structs across block flushes (blocks take a compact
// copy of the slot grid, see flush), and hands out Slot structs,
// footprint Loc slices and rename-pair lists from rolling arenas, so the
// steady-state insertion path performs no per-instruction heap allocation
// beyond amortised chunk refills.
//
// Every chunk the arenas ever allocate is additionally tracked in a slab
// list, so a reused scheduler reaches a zero-allocation steady state
// across runs (the machine-pool reuse path, DESIGN.md §15). Reset only
// rewinds the mount cursors: a Slot is zeroed when it is handed out, so
// Reset touches no slot and its cost does not grow with the largest run
// the scheduler ever served.

const (
	slotChunkSize = 256  // Slots per arena chunk
	locChunkSize  = 4096 // footprint Locs per arena chunk
	pairChunkSize = 1024 // RenamePairs per arena chunk
)

// arena hands out runs of T from rolling chunks of at least chunk
// elements. Every chunk it ever allocated stays registered in slabs, so
// after reset the next run is served from the same memory: slabs
// [0, next) are the ones mounted since the last reset, and cur is the
// last of them.
type arena[T any] struct {
	chunk int
	cur   []T
	slabs [][]T
	next  int
}

// take returns the next n elements as a capacity-clamped slice. They
// keep whatever an earlier run left in them; the caller overwrites them.
func (a *arena[T]) take(n int) []T {
	if cap(a.cur)-len(a.cur) < n {
		a.cur = a.mount(n)
	}
	start := len(a.cur)
	a.cur = a.cur[:start+n]
	return a.cur[start : start+n : start+n]
}

// clone copies src into the arena (nil for an empty src). It is written
// to stay within the inlining budget, so copying a footprint costs the
// hot path no call beyond take.
func (a *arena[T]) clone(src []T) []T {
	if len(src) == 0 {
		return nil
	}
	return append(a.take(len(src))[:0], src...)
}

// mount mounts the first unmounted slab with capacity ≥ n, allocating
// (and registering) a new chunk when none fits. The mounted slab is
// swapped into position next, so slabs [0, next) are exactly the ones in
// use since the last reset.
func (a *arena[T]) mount(n int) []T {
	i := a.next
	for i < len(a.slabs) && cap(a.slabs[i]) < n {
		i++
	}
	if i == len(a.slabs) {
		a.slabs = append(a.slabs, make([]T, 0, max(n, a.chunk)))
	}
	a.slabs[i], a.slabs[a.next] = a.slabs[a.next], a.slabs[i]
	a.next++
	return a.slabs[a.next-1][:0]
}

// reset rewinds the arena to its first slab, keeping every slab
// registered.
func (a *arena[T]) reset() {
	a.cur = nil
	a.next = 0
}

// newSlot returns a zeroed Slot from the free list or the slot arena.
func (u *Scheduler) newSlot() *Slot {
	var s *Slot
	if n := len(u.slotFree); n > 0 {
		s = u.slotFree[n-1]
		u.slotFree = u.slotFree[:n-1]
	} else {
		s = &u.slots.take(1)[0]
	}
	*s = Slot{}
	return s
}

// releaseSlot recycles a Slot that never escaped into a block (e.g. a
// candidate rebuilt after a flush started a fresh block). Its footprint
// and rename-pair slices are arena-backed, so they are simply dropped.
func (u *Scheduler) releaseSlot(s *Slot) {
	u.slotFree = append(u.slotFree, s)
}

// releaseElement resets an element and returns it to the pool. Its slot
// pointers have already been copied into the flushed block's backing
// array.
func (u *Scheduler) releaseElement(e *element) {
	for i := range e.slots {
		e.slots[i] = nil
	}
	e.branches = 0
	e.occ, e.ctis, e.mems, e.stores, e.loads = 0, 0, 0, 0, 0
	e.occMask = 0
	u.elemPool = append(u.elemPool, e)
}

// takeBlock returns a Block whose LIs grid has n rows of Width slots,
// recycled from the block pool when possible. Pooled blocks carry a full
// Height×Width grid (one backing array), so any flush size fits.
func (u *Scheduler) takeBlock(n int) *Block {
	if k := len(u.blockPool); k > 0 {
		b := u.blockPool[k-1]
		u.blockPool = u.blockPool[:k-1]
		lis := b.LIs[:u.cfg.Height]
		*b = Block{}
		b.LIs = lis[:n]
		return b
	}
	w := u.cfg.Width
	backing := make([]*Slot, u.cfg.Height*w)
	lis := make([][]*Slot, u.cfg.Height)
	for i := range lis {
		lis[i] = backing[i*w : (i+1)*w : (i+1)*w]
	}
	return &Block{LIs: lis[:n]}
}

// Reset returns the scheduler to its post-New state while keeping every
// allocation it has accumulated: elements, slots, arena slabs and pooled
// blocks all become available for the next run. Its cost follows the
// state used since the last Reset, not the slabs ever registered. It
// reclaims storage unconditionally, so it must only be called once no
// block the scheduler ever flushed is still in use (the machine's reset
// path drains the VLIW Cache first); any Block or Slot obtained before
// Reset is invalid after it. Stats are cleared except for the block
// geometry.
func (u *Scheduler) Reset() {
	for _, e := range u.elems {
		u.releaseElement(e)
	}
	u.elems = u.elems[:0]
	u.blockTag, u.blockCWP, u.blockSeq, u.blockIns = 0, 0, 0, 0
	u.haveTag = false
	u.renUsed = [NumRenameClasses]uint16{}
	u.order = 0
	u.splits = 0
	u.currentCon = false
	u.renEpoch++ // invalidates every renTab binding and index entry in O(1)
	u.renLive = 0
	u.idxMem = u.idxMem[:0]
	u.readMax, u.writeMax = locEntry{}, locEntry{}
	u.pending = u.pending[:0]
	if len(u.conservative) > 0 {
		clear(u.conservative)
	}
	u.trace = u.trace[:0]
	// Rewind the rolling arenas: slabs stay registered, the mount cursors
	// return to the first slab. Freed slots live in those slabs, so the
	// free list empties too. Slot pointers inside recycled blocks are
	// overwritten before use: flush copies a full row per long
	// instruction.
	u.slotFree = u.slotFree[:0]
	u.slots.reset()
	u.locs.reset()
	u.pairs.reset()
	u.Stats = Stats{Width: u.cfg.Width, Height: u.cfg.Height}
}

// RecycleBlock returns a block produced by this scheduler's Flush to the
// block pool, once the caller (the VLIW Cache, via the machine's reset
// path) is done with it. Blocks whose grid no longer matches the full
// Height×Width pooled layout — hand-built test blocks, or blocks a
// repacking strategy rewrote with fresh rows — are ignored and left to
// the garbage collector.
func (u *Scheduler) RecycleBlock(b *Block) {
	if b == nil || cap(b.LIs) < u.cfg.Height {
		return
	}
	lis := b.LIs[:u.cfg.Height]
	for _, row := range lis {
		if len(row) != u.cfg.Width {
			return
		}
	}
	u.blockPool = append(u.blockPool, b)
}

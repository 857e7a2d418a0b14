package sched

import (
	"fmt"
	"math/bits"

	"dtsvliw/internal/isa"
	"dtsvliw/internal/telemetry"
)

// element is one scheduling-list entry: one long instruction under
// construction. The candidate-instruction machinery of the hardware is
// simulated by the insertion-time journey in Insert; settled slots are
// "installed" in the paper's sense. Alongside the slot grid the element
// keeps occupancy counters for the resource, cohabitation and control
// rules. Dependencies on installed slots are answered by the scheduler's
// location index (index.go), not by the element.
type element struct {
	slots    []*Slot
	branches uint8 // conditional/indirect branches placed (tag counter)

	// Counters over occupied slots, the journeying candidate included
	// (maintained by occupy/vacate).
	occ     int    // occupied slots
	occMask uint64 // bit i set iff slots[i] != nil (Width ≤ 64, enforced by Validate)
	ctis    int    // conditional/indirect branches
	mems    int    // slots touching memory (incl. memory copies)
	stores  int    // stores and memory copies (cohabitation rule)
	loads   int    // loads (cohabitation rule)
}

// renEntry is one binding of the direct-mapped rename table: the renaming
// register holding an architectural location's newest in-block value. A
// binding is live only if its epoch matches the scheduler's current block
// epoch, which makes clearing the table at block boundaries O(1).
type renEntry struct {
	reg   RenameReg
	epoch uint64
}

// Scheduler is the Scheduler Unit. Feed it Completed instructions with
// Insert; it returns finished Blocks when the scheduling list fills. Use
// Flush for externally triggered flushes (VLIW Cache hit, non-schedulable
// instruction). The open block's location index (index.go) records where
// every location's installed writers and readers sit, and each
// dependency check compares the index's maxima over the journeying
// candidate's footprint with the element in question.
type Scheduler struct {
	cfg   Config     //resetcheck:allow configuration is fixed at construction
	nPhys int        //resetcheck:allow physical integer registers (rename-table geometry), fixed at construction
	elems []*element // index 0 is the scheduling-list head

	blockTag   uint32
	blockCWP   uint8
	blockSeq   uint64
	blockIns   uint64 // instructions inserted into the current block
	haveTag    bool
	renUsed    [NumRenameClasses]uint16
	order      uint16
	splits     int
	currentCon bool

	// Rename tracking (paper Figure 2): per architectural location, the
	// renaming register holding its newest value within the current block,
	// so that later consumers read the renaming register directly. Memory
	// locations are never forwarded (loads depend on the memory copy
	// instead). renTab is a direct-mapped epoch-stamped table covering
	// every register and singleton location.
	renTab   []renEntry //resetcheck:allow epoch-stamped; Reset invalidates every binding via renEpoch++
	renEpoch uint64
	renLive  int // live renTab bindings in the current block

	// acceptMask, per FU class, has bit i set iff slot i accepts the
	// class; free-slot lookup is then one AND-NOT against the element's
	// occupancy mask.
	acceptMask [isa.FUAny + 1]uint64 //resetcheck:allow pure function of cfg.FUs, computed at construction

	// conservative holds block tags (address plus entry window pointer)
	// that must be scheduled without load/store reordering after an
	// aliasing exception (paper §3.11).
	conservative map[uint64]bool

	// trace accumulates the current block's sequential instruction trace
	// under Config.RecordTrace; flush hands the slice to the block and
	// starts a fresh one.
	trace []Completed

	// The open block's location index (index.go).
	idxRegs []regEntry                   //resetcheck:allow epoch-stamped like renTab; Reset's renEpoch++ invalidates every entry
	idxRen  [NumRenameClasses][]locEntry //resetcheck:allow allocRename clears each entry as it hands the register out
	idxMem  []memAccess

	// The index's maxima over the footprint of the instruction journeying
	// through Insert/moveUp: over its reads (set by buildSlot) and over its
	// writes (set by buildSlot and after each split). pending holds the
	// copy instructions its splits left behind, until it installs.
	readMax  locEntry
	writeMax locEntry
	pending  []pendingCopy

	// onDecision, set only by the package's tests, sees each dependency
	// decision Insert is about to take: placing the candidate in tail
	// element elem (tail true) or moving it up out of element elem.
	onDecision func(cand *Slot, elem int, tail bool) //resetcheck:allow test hook, never set outside the package's tests

	// Allocation recycling (see pool.go). Each arena keeps every chunk it
	// ever allocated, so Reset reclaims the whole working set by rewinding
	// it.
	elemPool  []*element
	slots     arena[Slot]
	slotFree  []*Slot
	locs      arena[isa.Loc]
	pairs     arena[RenamePair]
	blockPool []*Block //resetcheck:allow recycled-block pool, deliberately kept across runs

	// Reusable scratch buffers for the insertion hot path. Each buffer is
	// private to one phase of Insert/moveUp, so no two live uses alias;
	// every use truncates before writing, so stale contents are never
	// read and the buffers survive Reset on purpose (capacity reuse).
	scratchReads  []isa.Loc    //resetcheck:allow buildSlot: effects assembly
	scratchWrites []isa.Loc    //resetcheck:allow
	scratchOut    []isa.Loc    //resetcheck:allow horizonOutputConflicts result
	scratchAnti   []isa.Loc    //resetcheck:allow antiConflicts result
	scratchConf   []isa.Loc    //resetcheck:allow moveUp: deduplicated conflict set
	scratchRem    []isa.Loc    //resetcheck:allow split: surviving write set
	scratchCpR    []isa.Loc    //resetcheck:allow split: copy-instruction reads
	scratchCpW    []isa.Loc    //resetcheck:allow split: copy-instruction writes
	scratchPairsA []RenamePair //resetcheck:allow buildSlot SrcRenames / split Renames
	scratchPairsB []RenamePair //resetcheck:allow split Copies

	tel *telemetry.Collector //resetcheck:allow nil when telemetry is disabled; pooled reuse refuses telemetry machines

	Stats Stats
}

// New builds a Scheduler Unit.
func New(cfg Config) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	u := &Scheduler{
		cfg:          cfg,
		nPhys:        isa.NumPhysRegs(cfg.NWin),
		conservative: make(map[uint64]bool),
		renEpoch:     1,
		slots:        arena[Slot]{chunk: slotChunkSize},
		locs:         arena[isa.Loc]{chunk: locChunkSize},
		pairs:        arena[RenamePair]{chunk: pairChunkSize},
	}
	u.renTab = make([]renEntry, u.nPhys+64+renSingletons)
	u.idxRegs = make([]regEntry, len(u.renTab))
	for cl := range u.acceptMask {
		for i := 0; i < cfg.Width; i++ {
			if cfg.slotAccepts(i, isa.FUClass(cl)) {
				u.acceptMask[cl] |= 1 << i
			}
		}
	}
	// The stats carry the block geometry so derived metrics (slot
	// utilisation) never depend on callers re-supplying dimensions.
	u.Stats.Width = cfg.Width
	u.Stats.Height = cfg.Height
	return u, nil
}

// SetTelemetry attaches a telemetry collector (nil detaches). Hook sites
// are nil-guarded and outside the dependency-check hot paths, keeping
// the zero-alloc guarantee when detached.
func (u *Scheduler) SetTelemetry(t *telemetry.Collector) { u.tel = t }

// Config returns the scheduler's configuration.
func (u *Scheduler) Config() Config { return u.cfg }

// Empty reports whether the scheduling list has no active elements.
func (u *Scheduler) Empty() bool { return len(u.elems) == 0 }

// Len returns the number of active scheduling-list elements.
func (u *Scheduler) Len() int { return len(u.elems) }

// MarkConservative requests conservative (in-order memory) scheduling for
// the block starting at tag with entry window pointer cwp, after an
// aliasing exception invalidated it.
func (u *Scheduler) MarkConservative(tag uint32, cwp uint8) {
	u.conservative[conKey(tag, cwp)] = true
}

func conKey(tag uint32, cwp uint8) uint64 { return uint64(tag)<<8 | uint64(cwp) }

// renSingletons is the number of rename-table entries past the register
// files: ICC, FCC, Y, CWP and LocNone.
const renSingletons = 5

// renIdx maps an architectural location to its rename-table index, or -1
// for locations outside the table: memory, which is never forwarded, and
// renaming registers, which are never architectural effects. The
// bindings below are only ever made, looked up and retired for register
// and singleton locations, which the table covers; the location index
// shares its geometry.
func (u *Scheduler) renIdx(l isa.Loc) int {
	switch l.Kind {
	case isa.LocIReg:
		if int(l.Idx) < u.nPhys {
			return int(l.Idx)
		}
	case isa.LocFReg:
		if l.Idx < 64 {
			return u.nPhys + int(l.Idx)
		}
	case isa.LocICC:
		return u.nPhys + 64
	case isa.LocFCC:
		return u.nPhys + 65
	case isa.LocY:
		return u.nPhys + 66
	case isa.LocCWP:
		return u.nPhys + 67
	case isa.LocNone:
		return u.nPhys + 68
	}
	return -1
}

// renSet binds location l to renaming register reg for the current block.
func (u *Scheduler) renSet(l isa.Loc, reg RenameReg) {
	if i := u.renIdx(l); i >= 0 {
		if u.renTab[i].epoch != u.renEpoch {
			u.renLive++
		}
		u.renTab[i] = renEntry{reg: reg, epoch: u.renEpoch}
	}
}

// renLookup returns the live binding of l, if any.
func (u *Scheduler) renLookup(l isa.Loc) (RenameReg, bool) {
	if i := u.renIdx(l); i >= 0 && u.renTab[i].epoch == u.renEpoch {
		return u.renTab[i].reg, true
	}
	return RenameReg{}, false
}

// renDelete retires the binding of l (its architectural location was
// overwritten by a newer instruction).
func (u *Scheduler) renDelete(l isa.Loc) {
	if i := u.renIdx(l); i >= 0 && u.renTab[i].epoch == u.renEpoch {
		u.renTab[i].epoch = 0
		u.renLive--
	}
}

// newElement appends a scheduling-list element, recycling a pooled one
// when available.
func (u *Scheduler) newElement() *element {
	var e *element
	if n := len(u.elemPool); n > 0 {
		e = u.elemPool[n-1]
		u.elemPool = u.elemPool[:n-1]
	} else {
		e = &element{slots: make([]*Slot, u.cfg.Width)}
	}
	u.elems = append(u.elems, e)
	return e
}

// freeSlot returns the index of a free slot in e compatible with class cl,
// or -1.
func (u *Scheduler) freeSlot(e *element, cl isa.FUClass) int {
	m := u.acceptMask[cl] &^ e.occMask
	if m == 0 {
		return -1
	}
	return bits.TrailingZeros64(m)
}

// overlapAny reports whether any location in a overlaps any in b, the
// naive pairwise predicate. injectFlushFaults uses it to find a consumer
// of a producer, and the tests hold the dependency checks to it.
func overlapAny(a, b []isa.Loc) bool {
	for _, x := range a {
		for _, y := range b {
			if x.Overlaps(y) {
				return true
			}
		}
	}
	return false
}

// The dependency checks below ask about slots installed before the
// candidate's journey began, in an element j with latency L; such a slot
// is still in flight for element t while j+L > t (multicycle extension,
// companion study [14]). Each answers from the index's maxima over the
// candidate's footprint (readMax, writeMax). That is exact where Insert
// asks: during a journey no installed slot below (nearer the tail than)
// the element being checked writes a location the candidate reads or
// still writes, and none below the candidate's element reads a location
// it still writes, since a check at that lower element would have
// stopped the candidate or renamed the output (DESIGN §10).

// trueDepBlocked reports whether the candidate may not occupy element t:
// a producer whose result arrives after t writes one of its read
// locations. With all latencies 1 this is the paper's check against the
// single element above.
func (u *Scheduler) trueDepBlocked(t int) bool { return int(u.readMax.ready) > t }

// wawBlocked reports whether tail element t cannot hold cand because of a
// write-ordering hazard: an installed slot writing one of cand's write
// locations either shares element t, whatever its latency (two writes to
// one location cannot share a long instruction), or is an in-flight
// multicycle producer whose writeback lands strictly after cand's own,
// j+lat > t+lat(cand) (the delayed commit would clobber the younger
// value). With all latencies 1 this is the paper's output-dependency rule
// against the tail element.
func (u *Scheduler) wawBlocked(cand *Slot, t int) bool {
	return int(u.writeMax.wlast) > t || int(u.writeMax.ready) > t+cand.LatOr1()
}

// wawCopyUnsafe reports whether moving the candidate out of element i is
// unsafe even with a split: an in-flight producer of one of its write
// locations would commit strictly after the copy instruction that stays
// behind in i (j+lat-1 > i), so renaming cannot restore write order and
// the candidate must be installed instead. Only latencies of three or
// more cycles reach past the copy.
func (u *Scheduler) wawCopyUnsafe(i int) bool { return int(u.writeMax.ready) > i+1 }

// horizonOutputConflicts returns the candidate's write locations that
// collide with an in-flight producer whose completion would land at or
// after the candidate's in element t (write-ordering hazard); such
// outputs must be renamed by a split. The returned slice aliases a
// scratch buffer valid until the next call.
func (u *Scheduler) horizonOutputConflicts(cand *Slot, t int) []isa.Loc {
	if int(u.writeMax.ready) <= t {
		return nil
	}
	out := u.scratchOut[:0]
	for _, w := range cand.writes {
		if int(u.lookup(w).ready) > t {
			out = append(out, w)
		}
	}
	u.scratchOut = out
	return out
}

// antiConflicts returns the candidate's write locations that the other
// installed slots of its element i read (the hardware disables the
// comparators of the companion slot, paper §3.7). The returned slice
// aliases a scratch buffer valid until the next call.
func (u *Scheduler) antiConflicts(cand *Slot, i int) []isa.Loc {
	if int(u.writeMax.rlast) <= i {
		return nil
	}
	out := u.scratchAnti[:0]
	for _, w := range cand.writes {
		if int(u.lookup(w).rlast) > i {
			out = append(out, w)
		}
	}
	u.scratchAnti = out
	return out
}

// memSerialized reports whether conservative scheduling forces an order
// dependency between the candidate and element e: after an aliasing
// exception the block keeps its loads and stores in insertion order by
// treating every memory pair as dependent (paper §3.11). The candidate
// occupies no slot of e at either call site, so e's counter needs no
// exclusion.
func (u *Scheduler) memSerialized(cand *Slot, e *element) bool {
	return u.currentCon && !cand.IsCopy && cand.IsMem && e.mems > 0
}

func hasMemCopy(s *Slot) bool {
	for _, c := range s.Copies {
		if c.Loc.Kind == isa.LocMem {
			return true
		}
	}
	return false
}

// buildSlot constructs the Slot for a completed instruction, rewriting
// source operands whose newest in-block value lives in a renaming
// register, and retiring rename bindings superseded by this instruction's
// architectural writes. Footprints are assembled in scratch buffers and
// stored in the Loc arena; the Slot itself comes from the slot pool.
// readMax and writeMax are left describing the new slot.
func (u *Scheduler) buildSlot(c Completed) *Slot {
	s := u.newSlot()
	s.Inst = c.Inst
	s.Addr = c.Addr
	s.CWP = c.CWP
	s.Seq = c.Seq
	s.Lat = int32(u.cfg.Latency(&c.Inst))
	reads, writes := c.Inst.EffectsAppend(c.CWP, u.cfg.NWin, c.Outcome.EA,
		u.scratchReads[:0], u.scratchWrites[:0])
	u.scratchReads, u.scratchWrites = reads, writes
	if u.renLive > 0 && !u.cfg.NoForwarding {
		srcRen := u.scratchPairsA[:0]
		for i, r := range reads {
			if r.Kind == isa.LocMem {
				continue
			}
			if reg, ok := u.renLookup(r); ok {
				reads[i] = RenLoc(reg)
				srcRen = append(srcRen, RenamePair{Loc: r, Reg: reg})
			}
		}
		u.scratchPairsA = srcRen
		s.SrcRenames = u.pairs.clone(srcRen)
		for _, w := range writes {
			if w.Kind != isa.LocMem {
				u.renDelete(w)
			}
		}
	}
	s.reads = u.locs.clone(reads)
	s.writes = u.locs.clone(writes)
	u.readMax, u.writeMax = u.maxOver(s.reads), u.maxOver(s.writes)
	if c.Inst.IsMem() {
		s.IsMem = true
		s.IsStore = c.Inst.IsStore()
		s.MemAddr = c.Outcome.EA
		s.MemSize = c.Inst.MemSize()
	}
	if c.Inst.IsCondBranch() || c.Inst.IsIndirectBranch() {
		s.BrTaken = c.Outcome.Taken
		s.BrTarget = c.Outcome.Target
	}
	return s
}

// cohabitCross updates the candidate's sticky cross bit on entering
// element e (paper §3.10; see DESIGN.md §5 for the store/load extension).
// The element counters include the candidate itself, matching the
// original slot scan which ran after placement.
func cohabitCross(cand *Slot, e *element) {
	if !cand.IsMem || cand.Cross {
		return
	}
	if e.stores > 0 {
		cand.Cross = true
		return
	}
	if cand.IsStore && e.loads > 0 {
		cand.Cross = true
	}
}

// place puts cand into a free slot of e with the element's current tag.
func (u *Scheduler) place(cand *Slot, e *element) int {
	idx := u.freeSlot(e, cand.Inst.Class())
	e.occupy(cand, idx)
	cand.Tag = e.branches
	if cand.IsCondOrIndirectBranch() {
		e.branches++
	}
	cohabitCross(cand, e)
	return idx
}

// allocRename allocates a fresh renaming register for an architectural
// location, with an empty entry in the location index.
func (u *Scheduler) allocRename(l isa.Loc) RenameReg {
	cl := classOf(l)
	r := RenameReg{Class: cl, Idx: u.renUsed[cl]}
	if int(r.Idx) < len(u.idxRen[cl]) {
		u.idxRen[cl][r.Idx] = locEntry{}
	} else {
		u.idxRen[cl] = append(u.idxRen[cl], locEntry{})
	}
	u.renUsed[cl]++
	if u.renUsed[cl] > u.Stats.MaxRenames[cl] {
		u.Stats.MaxRenames[cl] = u.renUsed[cl]
	}
	return r
}

// split renames the given outputs of cand and returns the copy
// instruction that takes cand's slot in its current element (paper §3.2),
// or nil under FaultDropCopy. The copy keeps the candidate's tag position
// and, for memory, its order and address for aliasing checks.
func (u *Scheduler) split(cand *Slot, conflicted []isa.Loc) *Slot {
	copySlot := u.newSlot()
	copySlot.Inst = cand.Inst
	copySlot.Addr = cand.Addr
	copySlot.CWP = cand.CWP
	copySlot.Seq = cand.Seq
	copySlot.Tag = cand.Tag
	copySlot.IsCopy = true
	remaining := u.scratchRem[:0]
	cpReads := u.scratchCpR[:0]
	cpWrites := u.scratchCpW[:0]
	renames := append(u.scratchPairsA[:0], cand.Renames...)
	copies := u.scratchPairsB[:0]
	faultedRename := false
	for _, w := range cand.writes {
		conflict := w.Kind != isa.LocRen
		if conflict {
			conflict = false
			for _, cw := range conflicted {
				if w == cw {
					conflict = true
					break
				}
			}
		}
		if !conflict {
			remaining = append(remaining, w)
			continue
		}
		reg := u.allocRename(w)
		if u.cfg.Fault == FaultDropRename && !faultedRename && w.Kind != isa.LocMem {
			// Fault injection (blockcheck meta-test): the split allocates
			// the renaming register and leaves the copy behind, but forgets
			// to redirect the producer's write — the copy commits a
			// renaming register nothing writes.
			faultedRename = true
			copies = append(copies, RenamePair{Loc: w, Reg: reg})
			cpReads = append(cpReads, RenLoc(reg))
			cpWrites = append(cpWrites, w)
			remaining = append(remaining, w)
			continue
		}
		renames = append(renames, RenamePair{Loc: w, Reg: reg})
		copies = append(copies, RenamePair{Loc: w, Reg: reg})
		cpReads = append(cpReads, RenLoc(reg))
		if w.Kind != isa.LocMem && !u.cfg.NoForwarding {
			u.renSet(w, reg)
			remaining = append(remaining, RenLoc(reg))
		}
		if w.Kind == isa.LocMem {
			cand.MemRenamed = true
			copySlot.IsMem = true
			copySlot.IsStore = true
			copySlot.MemAddr = cand.MemAddr
			copySlot.MemSize = cand.MemSize
			copySlot.Order = cand.Order
			copySlot.Cross = cand.Cross
		}
		cpWrites = append(cpWrites, w)
	}
	u.scratchRem, u.scratchCpR, u.scratchCpW = remaining, cpReads, cpWrites
	u.scratchPairsA, u.scratchPairsB = renames, copies
	cand.Renames = u.pairs.clone(renames)
	copySlot.Copies = u.pairs.clone(copies)
	cand.writes = u.locs.clone(remaining)
	u.writeMax = u.maxOver(cand.writes)
	copySlot.reads = u.locs.clone(cpReads)
	copySlot.writes = u.locs.clone(cpWrites)
	if u.cfg.Fault == FaultDropCopy {
		// Fault injection (oracle meta-test): lose the copy instruction,
		// leaving the renamed values stranded in the renaming registers.
		u.releaseSlot(copySlot)
		copySlot = nil
	}
	u.splits++
	u.Stats.Splits++
	if u.tel != nil {
		u.tel.Split(cand.Addr)
	}
	return copySlot
}

// Insert feeds one completed instruction to the Scheduler Unit. If the
// scheduling list is full, the current block is flushed and returned (its
// NBA address field is the incoming instruction's address, which starts
// the fall-through block, paper §3.3); the instruction then begins a new
// block. Nops and unconditional direct branches are ignored (paper §3.9).
// Non-schedulable instructions must be handled by the caller via Flush
// before calling Insert.
func (u *Scheduler) Insert(c Completed) (*Block, error) {
	if c.Inst.IsNop() || c.Inst.IsUncondBranch() {
		if u.cfg.RecordTrace && len(u.elems) > 0 {
			// Ignored instructions inside an open block belong to its trace
			// span; before the first placed instruction they belong to no
			// block.
			u.trace = append(u.trace, c)
		}
		u.Stats.Ignored++
		return nil, nil
	}
	if !c.Inst.IsSchedulable() {
		return nil, fmt.Errorf("sched: non-schedulable %v at %#08x reached Insert", c.Inst.Op, c.Addr)
	}
	if int(c.CWP) >= u.cfg.NWin {
		// Its registers would fall outside the location index.
		return nil, fmt.Errorf("sched: window pointer %d at %#08x outside %d windows", c.CWP, c.Addr, u.cfg.NWin)
	}

	var flushed *Block
	var cand *Slot

	if st := u.cfg.Strategy; st != nil && len(u.elems) > 0 && st.WantFlushBefore(u) {
		// Strategy-requested early flush (degenerate strategies like
		// one-per-block): the candidate starts a fresh block below.
		flushed = u.flush(c.Addr, c.Seq)
	}

	if len(u.elems) == 0 {
		// Rename bindings never cross blocks: start the block first so the
		// slot is built against the fresh (empty) rename table.
		u.startBlock(c)
		cand = u.buildSlot(c)
	} else {
		cand = u.buildSlot(c)
		if u.needsNewElement(cand, u.elems[len(u.elems)-1]) {
			if len(u.elems) >= u.cfg.Height {
				flushed = u.flush(c.Addr, c.Seq)
				u.startBlock(c)
				u.releaseSlot(cand)
				cand = u.buildSlot(c)
			} else {
				u.newElement()
				// Multicycle producers may require further padding
				// elements before the candidate's reads are satisfied and
				// in-flight writebacks of its output locations have landed.
				for u.tailBlocked(cand, len(u.elems)-1) {
					if len(u.elems) >= u.cfg.Height {
						flushed = u.flush(c.Addr, c.Seq)
						u.startBlock(c)
						u.releaseSlot(cand)
						cand = u.buildSlot(c)
						break
					}
					u.newElement()
				}
			}
		}
	}

	if cand.IsMem {
		cand.Order = u.order
		u.order++
	}

	tailIdx := len(u.elems) - 1
	slotIdx := u.place(cand, u.elems[tailIdx])
	u.Stats.Inserted++
	u.blockIns++
	if u.cfg.RecordTrace {
		// Record after the flush/startBlock decisions above, so the
		// instruction lands in the trace of the block it was placed in.
		u.trace = append(u.trace, c)
	}

	u.moveUp(cand, tailIdx, slotIdx)
	return flushed, nil
}

// needsNewElement applies the insertion rule: a new tail element is needed
// on a true dependency, an output dependency (two writes to one location
// cannot share a long instruction), a resource shortage, or conservative
// memory serialisation. Anti and control dependencies do not block
// placement in the tail: the read-before-write long-instruction semantics
// and the branch-tag system make such placement safe (paper §3.8). The
// latency horizon covers in-flight multicycle producers.
func (u *Scheduler) needsNewElement(cand *Slot, tail *element) bool {
	if u.freeSlot(tail, cand.Inst.Class()) < 0 {
		return true
	}
	return u.tailBlocked(cand, len(u.elems)-1) || u.memSerialized(cand, tail)
}

// tailBlocked reports whether a dependency on an installed producer keeps
// cand out of tail element t.
func (u *Scheduler) tailBlocked(cand *Slot, t int) bool {
	if u.onDecision != nil {
		u.onDecision(cand, t, true)
	}
	return u.trueDepBlocked(t) || u.wawBlocked(cand, t)
}

// moveUp walks the candidate up the scheduling list until installed,
// applying the paper's install/split/move rules at each element boundary,
// then enters it and the copy instructions its splits left behind into
// the location index. Control-transfer instructions never move (paper
// §3.8).
func (u *Scheduler) moveUp(cand *Slot, elemIdx, slotIdx int) {
	moves := !cand.Inst.IsCTI()
	for moves && elemIdx > 0 {
		if u.onDecision != nil {
			u.onDecision(cand, elemIdx, false)
		}
		cur := u.elems[elemIdx]
		prev := u.elems[elemIdx-1]

		// Install on true dependency or resource dependency (paper §3.7:
		// "if the install and the split signals are both true the
		// respective candidate instruction is only installed"). The
		// dependency horizon covers multicycle producers.
		if u.trueDepBlocked(elemIdx-1) ||
			u.freeSlot(prev, cand.Inst.Class()) < 0 ||
			u.memSerialized(cand, prev) ||
			u.wawCopyUnsafe(elemIdx) {
			break
		}

		// Split on output dependency with i-1 (or any in-flight producer
		// completing at/after the candidate), anti dependency with i, or
		// control dependency with i (paper §3.2).
		outConf := u.horizonOutputConflicts(cand, elemIdx-1)
		antiConf := u.antiConflicts(cand, elemIdx)
		needAll := cur.ctis > 0
		// The candidate leaves cur's counters before split can set its
		// MemRenamed flag.
		cur.vacate(cand, slotIdx)
		if len(outConf) > 0 || len(antiConf) > 0 || needAll {
			conflicted := u.scratchConf[:0]
			if needAll {
				for _, w := range cand.writes {
					if w.Kind != isa.LocRen {
						conflicted = append(conflicted, w)
					}
				}
			} else {
				for _, l := range outConf {
					if !locIn(conflicted, l) {
						conflicted = append(conflicted, l)
					}
				}
				for _, l := range antiConf {
					if !locIn(conflicted, l) {
						conflicted = append(conflicted, l)
					}
				}
			}
			u.scratchConf = conflicted
			// With nothing left to protect (all outputs already renamed)
			// the move needs no new copy.
			if len(conflicted) > 0 {
				if cs := u.split(cand, conflicted); cs != nil {
					cur.occupy(cs, slotIdx)
					u.pending = append(u.pending, pendingCopy{cs, elemIdx})
				}
			}
		}

		// Move into the previous element. The candidate is no branch, so
		// placing it leaves prev's tag counter alone.
		slotIdx = u.place(cand, prev)
		elemIdx--
		u.Stats.MoveUps++
	}
	u.install(cand, elemIdx)
	for _, p := range u.pending {
		u.install(p.s, p.elem)
	}
	u.pending = u.pending[:0]
	u.Stats.Installs++
}

// locIn reports whether l is already present in locs (small-set dedup
// replacing the previous per-decision map allocation).
func locIn(locs []isa.Loc, l isa.Loc) bool {
	for _, x := range locs {
		if x == l {
			return true
		}
	}
	return false
}

// startBlock begins a new block with c as its first instruction.
func (u *Scheduler) startBlock(c Completed) {
	u.newElement()
	u.blockTag = c.Addr
	u.blockCWP = c.CWP
	u.blockSeq = c.Seq
	u.blockIns = 0
	u.haveTag = true
	u.order = 0
	u.splits = 0
	u.renUsed = [NumRenameClasses]uint16{}
	u.renEpoch++ // also clears the location index's register entries
	u.renLive = 0
	u.idxMem = u.idxMem[:0]
	u.currentCon = u.conservative[conKey(c.Addr, c.CWP)]
	if u.currentCon {
		u.Stats.ConservativeBl++
	}
}

// Flush ends the block under construction and returns it, or nil if the
// list is empty. nbaAddr is the SPARC address the block's next-block-
// address store receives: the address of the next instruction in the
// trace (on a VLIW Cache hit, the hit address, making the block point at
// the hit block, paper §3.6). endSeq is the sequence number of the
// instruction triggering the flush, which closes the block's trace span.
func (u *Scheduler) Flush(nbaAddr uint32, endSeq uint64) *Block {
	if len(u.elems) == 0 {
		return nil
	}
	return u.flush(nbaAddr, endSeq)
}

func (u *Scheduler) flush(nbaAddr uint32, endSeq uint64) *Block {
	if u.cfg.Fault == FaultSwapSlots || u.cfg.Fault == FaultLatencyViolation {
		u.injectFlushFaults()
	}
	// The block takes a compact copy of the slot grid (a pooled Height×Width
	// backing array, see takeBlock) so the element structs can be recycled
	// for the next block instead of being reallocated per long instruction.
	b := u.takeBlock(len(u.elems))
	b.Tag = u.blockTag
	b.EntryCWP = u.blockCWP
	b.NumLIs = len(u.elems)
	b.NBA = LongAddr{Addr: nbaAddr, Line: len(u.elems) - 1}
	b.Renames = u.renUsed
	b.Splits = u.splits
	b.FirstSeq = u.blockSeq
	b.EndSeq = endSeq
	b.Conservative = u.currentCon
	for i, e := range u.elems {
		copy(b.LIs[i], e.slots)
		b.ValidOps += e.occ
		u.releaseElement(e)
	}
	u.elems = u.elems[:0]
	u.haveTag = false
	if u.cfg.RecordTrace {
		b.Trace = u.trace
		u.trace = nil
	}
	// The strategy sees (and may rewrite) the finished block before flush
	// statistics and telemetry record its shape.
	if u.cfg.Strategy != nil {
		u.cfg.Strategy.FinishBlock(u, b)
	}
	u.Stats.BlocksFlushed++
	u.Stats.FlushedLIs += uint64(b.NumLIs)
	u.Stats.FlushedSlots += uint64(b.ValidOps)
	if u.tel != nil {
		u.tel.BlockFlushed(b.NumLIs, u.blockIns)
	}
	return b
}

// injectFlushFaults deliberately corrupts the finished schedule just
// before it is compacted into a Block, for blockcheck meta-tests. Each
// fault relocates one consumer into an illegal long instruction:
//
//   - FaultSwapSlots moves a consumer into the same long instruction as
//     one of its producers (a read-after-write violation);
//   - FaultLatencyViolation moves a consumer of a multicycle producer
//     into the producer's latency shadow.
//
// At most one slot is moved per block; blocks with no eligible victim
// pair flush unfaulted. The block is about to close, so the location
// index is left stale; occupy/vacate keep the slots and counters flush
// reads. The moved slot's branch tag is recomputed for its
// destination so the injected violation stays surgical.
func (u *Scheduler) injectFlushFaults() {
	for i := 0; i < len(u.elems); i++ {
		p := u.elems[i]
		if p.occ == 0 {
			continue
		}
		for _, prod := range p.slots {
			if prod == nil || len(prod.writes) == 0 {
				continue
			}
			dstIdx := i
			if u.cfg.Fault == FaultLatencyViolation {
				if prod.LatOr1() < 2 {
					continue
				}
				dstIdx = i + 1 // strictly inside the latency shadow
			}
			for j := dstIdx + 1; j < len(u.elems); j++ {
				for cIdx, c := range u.elems[j].slots {
					if c == nil || c.IsCopy || c.IsMem || c.Inst.IsCTI() ||
						!overlapAny(c.reads, prod.writes) {
						continue
					}
					if u.relocateSlot(j, cIdx, dstIdx) {
						return
					}
				}
			}
		}
	}
}

// relocateSlot moves the slot at (srcElem, srcIdx) into a free
// class-compatible slot of dstElem, returning false if none is free.
func (u *Scheduler) relocateSlot(srcElem, srcIdx, dstElem int) bool {
	src, dst := u.elems[srcElem], u.elems[dstElem]
	c := src.slots[srcIdx]
	idx := u.freeSlot(dst, c.Inst.Class())
	if idx < 0 {
		return false
	}
	src.vacate(c, srcIdx)
	dst.occupy(c, idx)
	var tag uint8
	for _, s := range dst.slots {
		if s != nil && s != c && s.IsCondOrIndirectBranch() && s.Seq < c.Seq {
			tag++
		}
	}
	c.Tag = tag
	return true
}

// Dump renders the scheduling list for debugging, in the style of the
// paper's Figure 2c.
func (u *Scheduler) Dump() string {
	out := ""
	for i, e := range u.elems {
		prefix := "     "
		if i == 0 {
			prefix = "slh->"
		}
		if i == len(u.elems)-1 {
			prefix = "slt->"
		}
		out += prefix
		for _, s := range e.slots {
			out += fmt.Sprintf(" | %-28s", s.String())
		}
		out += "\n"
	}
	return out
}

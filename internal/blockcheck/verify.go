package blockcheck

import (
	"fmt"
	"sort"

	"dtsvliw/internal/isa"
	"dtsvliw/internal/sched"
	"dtsvliw/internal/vliw"
)

// Verify statically checks the legality of block b against the sequential
// trace recorded in b.Trace, under the scheduler configuration cfg that
// produced it. low is the lowered micro-op form saved alongside the block
// (nil skips the lowered-agreement check, for callers that verify only
// the schedule).
// The returned report lists every violation found; Ok() means the block
// is proven equivalent to its sequential source under the VLIW Engine's
// execution semantics (DESIGN.md §13).
func Verify(b *sched.Block, low *vliw.LoweredBlock, cfg sched.Config) *Report {
	r := &Report{BlockTag: b.Tag, EntryCWP: b.EntryCWP, NumLIs: b.NumLIs}
	v := &verifier{b: b, cfg: cfg, r: r}
	if !v.checkGeometry() {
		return r // grid shape unusable: later phases would index out of range
	}
	v.collect()
	v.checkTrace()
	v.checkRenameLinkage()
	v.checkTags()
	v.checkSpeculation()
	v.checkDataflow()
	v.checkSrcRenames()
	v.checkMemOrder()
	v.checkLowered(low)
	return r
}

// ref locates one occupied slot of the grid, together with the semantic
// (pre-renaming) footprint reconstructed from the trace.
type ref struct {
	li, col int
	s       *sched.Slot
	semR    []isa.Loc // nil for copies and when the trace is missing
	semW    []isa.Loc
}

type verifier struct {
	b    *sched.Block
	cfg  sched.Config
	r    *Report
	refs []ref

	haveTrace bool
	producers map[sched.RenameReg]*ref // slot whose Renames lists the register
	prodLoc   map[sched.RenameReg]isa.Loc
}

// maxViolations bounds a single report: a badly corrupted block would
// otherwise produce a quadratic flood of dependence violations.
const maxViolations = 256

func (v *verifier) add(viol Violation) {
	if len(v.r.Violations) < maxViolations {
		v.r.add(viol)
	}
}

// slotViol fills the slot-locating fields of a violation from a ref.
func slotViol(k Kind, rf *ref, detail string, locs ...isa.Loc) Violation {
	return Violation{Kind: k, Cycle: rf.li, Slot: rf.col, Addr: rf.s.Addr,
		Seq: rf.s.Seq, Tag: rf.s.Tag, Locs: locs, Detail: detail}
}

// --- Phase A: geometry and per-slot resource constraints ---------------

func (v *verifier) checkGeometry() bool {
	b := v.b
	if b.NumLIs < 1 || b.NumLIs > v.cfg.Height || len(b.LIs) != b.NumLIs {
		v.add(Violation{Kind: KindGeometry, Cycle: -1, Slot: -1,
			Detail: fmt.Sprintf("block has %d long instructions (grid rows %d, height limit %d)",
				b.NumLIs, len(b.LIs), v.cfg.Height)})
		return false
	}
	ok := true
	for li, row := range b.LIs {
		if len(row) != v.cfg.Width {
			v.add(Violation{Kind: KindGeometry, Cycle: li, Slot: -1,
				Detail: fmt.Sprintf("long instruction has %d slots, width is %d",
					len(row), v.cfg.Width)})
			ok = false
		}
	}
	if !ok {
		return false
	}
	if b.NBA.Line != b.NumLIs-1 {
		v.add(Violation{Kind: KindGeometry, Cycle: -1, Slot: -1,
			Detail: fmt.Sprintf("next-block-address line %d, last long instruction is %d",
				b.NBA.Line, b.NumLIs-1)})
	}
	valid := 0
	for _, row := range b.LIs {
		for _, s := range row {
			if s != nil {
				valid++
			}
		}
	}
	if valid != b.ValidOps {
		v.add(Violation{Kind: KindGeometry, Cycle: -1, Slot: -1,
			Detail: fmt.Sprintf("ValidOps %d, grid holds %d occupied slots", b.ValidOps, valid)})
	}
	return true
}

func (v *verifier) checkSlotResources(rf *ref) {
	s := rf.s
	if cl := s.Inst.Class(); !v.cfg.SlotAccepts(rf.col, cl) {
		v.add(slotViol(KindResource, rf,
			fmt.Sprintf("slot column does not accept %v instructions", cl)))
	}
	if s.IsCopy {
		if s.LatOr1() != 1 {
			v.add(slotViol(KindResource, rf,
				fmt.Sprintf("copy instruction carries latency %d", s.Lat)))
		}
	} else if want := v.cfg.Latency(&s.Inst); int(s.Lat) != want {
		v.add(slotViol(KindResource, rf,
			fmt.Sprintf("recorded latency %d, configuration assigns %d", s.Lat, want)))
	}
	check := func(pairs []sched.RenamePair, what string) {
		for _, p := range pairs {
			if int(p.Reg.Class) >= int(sched.NumRenameClasses) ||
				p.Reg.Idx >= v.b.Renames[p.Reg.Class] {
				v.add(slotViol(KindResource, rf,
					fmt.Sprintf("%s names %v%d outside the block's %d allocated registers",
						what, p.Reg.Class, p.Reg.Idx, v.b.Renames[p.Reg.Class%sched.NumRenameClasses]),
					p.Loc))
			}
		}
	}
	check(s.Renames, "rename pair")
	check(s.SrcRenames, "source-rename pair")
	check(s.Copies, "copy pair")
}

func (v *verifier) collect() {
	for li, row := range v.b.LIs {
		for col, s := range row {
			if s == nil {
				continue
			}
			v.refs = append(v.refs, ref{li: li, col: col, s: s})
		}
	}
	for i := range v.refs {
		v.checkSlotResources(&v.refs[i])
	}
}

// --- Phase B: trace integrity and footprint reconstruction -------------

func (v *verifier) checkTrace() {
	b := v.b
	if b.Trace == nil {
		v.add(Violation{Kind: KindTrace, Cycle: -1, Slot: -1,
			Detail: "no trace recorded (sched.Config.RecordTrace off)"})
		return
	}
	v.haveTrace = true
	if want := b.EndSeq - b.FirstSeq; uint64(len(b.Trace)) != want {
		v.add(Violation{Kind: KindTrace, Cycle: -1, Slot: -1,
			Detail: fmt.Sprintf("trace holds %d instructions, span [%d,%d) covers %d",
				len(b.Trace), b.FirstSeq, b.EndSeq, want)})
		v.haveTrace = false
		return
	}
	for i, t := range b.Trace {
		if t.Seq != b.FirstSeq+uint64(i) {
			v.add(Violation{Kind: KindTrace, Cycle: -1, Slot: -1, Addr: t.Addr, Seq: t.Seq,
				Detail: fmt.Sprintf("trace entry %d carries seq %d, expected %d",
					i, t.Seq, b.FirstSeq+uint64(i))})
			v.haveTrace = false
			return
		}
	}
	if t0 := b.Trace[0]; t0.Addr != b.Tag || t0.CWP != b.EntryCWP {
		v.add(Violation{Kind: KindTrace, Cycle: -1, Slot: -1, Addr: t0.Addr, Seq: t0.Seq,
			Detail: fmt.Sprintf("trace starts at %#08x cwp=%d, block tag is %#08x cwp=%d",
				t0.Addr, t0.CWP, b.Tag, b.EntryCWP)})
	}

	// Map sequence numbers to their scheduled slots. Copies share their
	// producer's sequence number and are skipped here.
	bySeq := make(map[uint64]*ref, len(v.refs))
	for i := range v.refs {
		rf := &v.refs[i]
		if rf.s.IsCopy {
			continue
		}
		if rf.s.Seq < b.FirstSeq || rf.s.Seq >= b.EndSeq {
			v.add(slotViol(KindTrace, rf,
				fmt.Sprintf("slot sequence number outside the block span [%d,%d)",
					b.FirstSeq, b.EndSeq)))
			continue
		}
		if prev, dup := bySeq[rf.s.Seq]; dup {
			v.add(slotViol(KindTrace, rf,
				fmt.Sprintf("sequence number also scheduled at li=%d slot=%d", prev.li, prev.col)))
			continue
		}
		bySeq[rf.s.Seq] = rf
	}

	for i := range b.Trace {
		t := &b.Trace[i]
		rf, ok := bySeq[t.Seq]
		if !ok {
			if !t.Inst.IsNop() && !t.Inst.IsUncondBranch() {
				v.add(Violation{Kind: KindTrace, Cycle: -1, Slot: -1, Addr: t.Addr, Seq: t.Seq,
					Detail: fmt.Sprintf("schedulable trace instruction %v missing from the block",
						t.Inst.Op)})
			}
			continue
		}
		v.checkSlotAgainstTrace(rf, t)
	}

	// Copy identity: a copy must carry its producer's Seq/Addr/CWP (the
	// committed value belongs to that source instruction).
	for i := range v.refs {
		rf := &v.refs[i]
		if !rf.s.IsCopy {
			continue
		}
		p, ok := bySeq[rf.s.Seq]
		if !ok {
			v.add(slotViol(KindTrace, rf, "copy's sequence number names no scheduled instruction"))
			continue
		}
		if p.s.Addr != rf.s.Addr || p.s.CWP != rf.s.CWP {
			v.add(slotViol(KindTrace, rf,
				fmt.Sprintf("copy identity %#08x/cwp=%d differs from producer %#08x/cwp=%d",
					rf.s.Addr, rf.s.CWP, p.s.Addr, p.s.CWP)))
		}
		v.checkCopyFootprint(rf)
	}
}

// checkSlotAgainstTrace verifies a scheduled slot against its trace entry
// and reconstructs its footprint.
func (v *verifier) checkSlotAgainstTrace(rf *ref, t *sched.Completed) {
	s := rf.s
	if t.Inst.IsNop() || t.Inst.IsUncondBranch() {
		v.add(slotViol(KindTrace, rf, "ignored instruction (nop/unconditional branch) was scheduled"))
		return
	}
	if s.Inst != t.Inst || s.Addr != t.Addr || s.CWP != t.CWP {
		v.add(slotViol(KindTrace, rf,
			fmt.Sprintf("slot %v@%#08x/cwp=%d differs from trace %v@%#08x/cwp=%d",
				s.Inst.Op, s.Addr, s.CWP, t.Inst.Op, t.Addr, t.CWP)))
		return
	}
	if s.IsCondOrIndirectBranch() &&
		(s.BrTaken != t.Outcome.Taken || s.BrTarget != t.Outcome.Target) {
		v.add(slotViol(KindTrace, rf,
			fmt.Sprintf("recorded branch outcome taken=%v target=%#08x differs from trace taken=%v target=%#08x",
				s.BrTaken, s.BrTarget, t.Outcome.Taken, t.Outcome.Target)))
	}
	if t.Inst.IsMem() {
		if !s.IsMem || s.MemAddr != t.Outcome.EA || s.MemSize != t.Inst.MemSize() {
			v.add(slotViol(KindTrace, rf,
				fmt.Sprintf("memory metadata m[%#x+%d] differs from trace m[%#x+%d]",
					s.MemAddr, s.MemSize, t.Outcome.EA, t.Inst.MemSize())))
		}
		if s.IsStore != t.Inst.IsStore() {
			v.add(slotViol(KindTrace, rf, "store flag differs from trace"))
		}
	} else if s.IsMem {
		v.add(slotViol(KindTrace, rf, "non-memory instruction carries memory metadata"))
	}

	rf.semR, rf.semW = t.Inst.EffectsAppend(t.CWP, v.cfg.NWin, t.Outcome.EA, nil, nil)
	v.checkFootprint(rf)
}

// checkFootprint rebuilds the recorded footprint a legal scheduler would
// attach to the slot — the semantic footprint with the slot's own
// renaming metadata applied — and compares it with the recorded one.
func (v *verifier) checkFootprint(rf *ref) {
	s := rf.s
	if v.cfg.NoForwarding && len(s.SrcRenames) > 0 {
		v.add(slotViol(KindSrcRename, rf, "source forwarding is disabled but the slot reads renaming registers"))
	}

	// Reads: each SrcRenames pair rewrites one occurrence of its
	// architectural location (memory operands are never forwarded).
	srcPairs := append([]sched.RenamePair(nil), s.SrcRenames...)
	expR := make([]isa.Loc, 0, len(rf.semR))
	for _, r := range rf.semR {
		if r.Kind != isa.LocMem {
			if i := takePair(&srcPairs, r); i {
				reg, _ := s.SrcRenameTarget(r)
				expR = append(expR, sched.RenLoc(reg))
				continue
			}
		}
		expR = append(expR, r)
	}
	for _, p := range srcPairs {
		v.add(slotViol(KindSrcRename, rf,
			"source-rename pair names a location the instruction does not read", p.Loc))
	}

	// Writes: each Renames pair redirects one semantic write — renamed
	// memory writes move entirely to the memory copy; renamed register
	// writes stay in the footprint as the renaming register (unless
	// forwarding is disabled, in which case consumers wait for the copy).
	renPairs := append([]sched.RenamePair(nil), s.Renames...)
	expW := make([]isa.Loc, 0, len(rf.semW))
	for _, w := range rf.semW {
		if i := takePairReg(&renPairs, w); i != nil {
			if w.Kind != isa.LocMem && !v.cfg.NoForwarding {
				expW = append(expW, sched.RenLoc(i.Reg))
			}
			continue
		}
		expW = append(expW, w)
	}
	for _, p := range renPairs {
		v.add(slotViol(KindFootprint, rf,
			"rename pair names a location the instruction does not write", p.Loc))
	}

	if !sameLocMultiset(expR, s.Reads()) {
		v.add(slotViol(KindFootprint, rf,
			fmt.Sprintf("recorded reads %v differ from reconstructed %v", s.Reads(), expR)))
	}
	if !sameLocMultiset(expW, s.Writes()) {
		v.add(slotViol(KindFootprint, rf,
			fmt.Sprintf("recorded writes %v differ from reconstructed %v", s.Writes(), expW)))
	}
}

// checkCopyFootprint verifies a copy slot's footprint: it reads exactly
// the renaming registers of its pairs and writes exactly their
// architectural locations.
func (v *verifier) checkCopyFootprint(rf *ref) {
	s := rf.s
	if len(s.Copies) == 0 {
		v.add(slotViol(KindFootprint, rf, "copy instruction commits nothing"))
		return
	}
	expR := make([]isa.Loc, 0, len(s.Copies))
	expW := make([]isa.Loc, 0, len(s.Copies))
	for _, p := range s.Copies {
		expR = append(expR, sched.RenLoc(p.Reg))
		expW = append(expW, p.Loc)
	}
	if !sameLocMultiset(expR, s.Reads()) {
		v.add(slotViol(KindFootprint, rf,
			fmt.Sprintf("copy reads %v differ from its pairs %v", s.Reads(), expR)))
	}
	if !sameLocMultiset(expW, s.Writes()) {
		v.add(slotViol(KindFootprint, rf,
			fmt.Sprintf("copy writes %v differ from its pairs %v", s.Writes(), expW)))
	}
}

// takePair consumes one pair matching architectural location l, reporting
// whether one existed.
func takePair(pairs *[]sched.RenamePair, l isa.Loc) bool {
	for i, p := range *pairs {
		if p.Loc == l {
			*pairs = append((*pairs)[:i], (*pairs)[i+1:]...)
			return true
		}
	}
	return false
}

// takePairReg consumes and returns the pair matching write location l
// (exact for registers and singletons; any memory pair captures a memory
// write, mirroring Slot.RenameTarget).
func takePairReg(pairs *[]sched.RenamePair, l isa.Loc) *sched.RenamePair {
	for i, p := range *pairs {
		if p.Loc == l || (p.Loc.Kind == isa.LocMem && l.Kind == isa.LocMem) {
			out := p
			*pairs = append((*pairs)[:i], (*pairs)[i+1:]...)
			return &out
		}
	}
	return nil
}

// --- Phase C: rename/split linkage -------------------------------------

func (v *verifier) checkRenameLinkage() {
	v.producers = make(map[sched.RenameReg]*ref)
	v.prodLoc = make(map[sched.RenameReg]isa.Loc)
	committed := make(map[sched.RenameReg]*ref)
	for i := range v.refs {
		rf := &v.refs[i]
		for _, p := range rf.s.Renames {
			if prev, dup := v.producers[p.Reg]; dup {
				v.add(slotViol(KindRenameDup, rf,
					fmt.Sprintf("%v%d already produced at li=%d slot=%d",
						p.Reg.Class, p.Reg.Idx, prev.li, prev.col), p.Loc))
				continue
			}
			v.producers[p.Reg] = rf
			v.prodLoc[p.Reg] = p.Loc
		}
	}
	for i := range v.refs {
		rf := &v.refs[i]
		for _, p := range rf.s.Copies {
			if prev, dup := committed[p.Reg]; dup {
				v.add(slotViol(KindRenameDup, rf,
					fmt.Sprintf("%v%d already committed at li=%d slot=%d",
						p.Reg.Class, p.Reg.Idx, prev.li, prev.col), p.Loc))
				continue
			}
			committed[p.Reg] = rf
			prod, ok := v.producers[p.Reg]
			if !ok {
				v.add(slotViol(KindRenameNoProducer, rf,
					fmt.Sprintf("copy commits %v%d but no slot renames into it",
						p.Reg.Class, p.Reg.Idx), p.Loc))
				continue
			}
			if pl := v.prodLoc[p.Reg]; pl != p.Loc {
				v.add(slotViol(KindRenameNoProducer, rf,
					fmt.Sprintf("copy commits %v%d to %v but the producer renamed %v",
						p.Reg.Class, p.Reg.Idx, p.Loc, pl), p.Loc, pl))
			}
			if prod.s.Seq != rf.s.Seq {
				v.add(slotViol(KindRenameNoProducer, rf,
					fmt.Sprintf("copy of seq %d commits a register produced by seq %d",
						rf.s.Seq, prod.s.Seq), p.Loc))
			}
			// The engine's rename bypass covers only pending writes from
			// earlier long instructions: the copy must sit strictly below
			// its producer.
			if rf.li <= prod.li {
				v.add(slotViol(KindCopyOrder, rf,
					fmt.Sprintf("copy at li=%d does not sit below its producer at li=%d",
						rf.li, prod.li), p.Loc))
			}
			if p.Loc.Kind == isa.LocMem {
				if !prod.s.MemRenamed {
					v.add(slotViol(KindFootprint, rf,
						"memory copy exists but the producer is not marked memory-renamed", p.Loc))
				}
				if !rf.s.IsMem || !rf.s.IsStore || rf.s.Order != prod.s.Order {
					v.add(slotViol(KindMemOrder, rf,
						"memory copy does not inherit the producer's store metadata", p.Loc))
				}
			}
		}
	}
	for reg, prod := range v.producers {
		if _, ok := committed[reg]; !ok {
			v.add(slotViol(KindRenameNoCopy, prod,
				fmt.Sprintf("renamed output %v%d is never committed back to %v — the value leaks past block exit",
					reg.Class, reg.Idx, v.prodLoc[reg]), v.prodLoc[reg]))
		}
	}
}

// --- Phase D: branch tags and speculation -------------------------------

func (v *verifier) checkTags() {
	for li, row := range v.b.LIs {
		for col, s := range row {
			if s == nil {
				continue
			}
			var want uint8
			for _, t := range row {
				if t != nil && t != s && t.IsCondOrIndirectBranch() && t.Seq < s.Seq {
					want++
				}
			}
			if s.Tag != want {
				v.add(Violation{Kind: KindTag, Cycle: li, Slot: col, Addr: s.Addr,
					Seq: s.Seq, Tag: s.Tag,
					Detail: fmt.Sprintf("tag %d, but %d older conditional/indirect branches share the long instruction",
						s.Tag, want)})
			}
		}
	}
}

func (v *verifier) checkSpeculation() {
	for i := range v.refs {
		br := &v.refs[i]
		if !br.s.IsCondOrIndirectBranch() {
			continue
		}
		for j := range v.refs {
			s := &v.refs[j]
			if s.li >= br.li || s.s.Seq <= br.s.Seq {
				continue
			}
			// s executes in an earlier cycle than a branch that precedes it
			// in the source order: it runs speculatively and must be
			// squashable when the branch leaves the trace.
			switch {
			case s.s.IsCopy:
				v.add(slotViol(KindSpeculation, s,
					fmt.Sprintf("copy commits architectural state above the branch at li=%d (seq %d)",
						br.li, br.s.Seq)))
			case s.s.IsCondOrIndirectBranch():
				v.add(slotViol(KindSpeculation, s,
					fmt.Sprintf("branch scheduled above the older branch at li=%d (seq %d): trace exits would resolve out of order",
						br.li, br.s.Seq)))
			default:
				for _, w := range s.s.Writes() {
					if w.Kind != isa.LocRen {
						v.add(slotViol(KindSpeculation, s,
							fmt.Sprintf("unrenamed write above the branch at li=%d (seq %d) is not squashable",
								br.li, br.s.Seq), w))
						break
					}
				}
			}
		}
	}
}

// --- Phase E: dataflow over long-instruction cycles ---------------------

func (v *verifier) checkDataflow() {
	for i := range v.refs {
		for j := range v.refs {
			a, b := &v.refs[i], &v.refs[j]
			if a.s.Seq >= b.s.Seq {
				continue // ordered pairs only; producer/copy pairs (equal
				// seq) are covered by the rename-linkage phase
			}
			v.checkPair(a, b)
		}
	}
}

// checkPair checks one source-ordered pair: a precedes b in the trace.
// The conditions mirror the engine's commit pipeline: a write issued in
// long instruction i with latency λ lands at the end of cycle i+λ-1 and
// is readable from cycle i+λ on; reads sample pre-cycle state; writes
// landing in one cycle commit in issue order (earlier long instruction
// first).
func (v *verifier) checkPair(a, b *ref) {
	dueA := a.li + a.s.LatOr1() - 1
	dueB := b.li + b.s.LatOr1() - 1

	// RAW: b must issue after a's result lands. Copies are exempt — they
	// read their producer through the rename bypass, checked by the
	// rename-linkage phase.
	if !b.s.IsCopy {
		for _, w := range a.s.Writes() {
			for _, r := range b.s.Reads() {
				if !w.Overlaps(r) {
					continue
				}
				if b.li <= a.li {
					v.add(slotViol(KindRAW, b,
						fmt.Sprintf("reads %v at li=%d, at or above its producer (seq %d) at li=%d",
							r, b.li, a.s.Seq, a.li), w, r))
				} else if b.li <= dueA {
					v.add(slotViol(KindLatency, b,
						fmt.Sprintf("reads %v at li=%d inside the latency shadow of its producer (seq %d, li=%d, latency %d)",
							r, b.li, a.s.Seq, a.li, a.s.LatOr1()), w, r))
				}
				goto war // one violation per pair and hazard class
			}
		}
	}
war:
	// WAR: the younger write must not land before the older reader issues.
	for _, r := range a.s.Reads() {
		for _, w := range b.s.Writes() {
			if !w.Overlaps(r) {
				continue
			}
			if dueB < a.li {
				v.add(slotViol(KindWAR, b,
					fmt.Sprintf("write to %v lands at li=%d, before the older reader (seq %d) issues at li=%d",
						w, dueB, a.s.Seq, a.li), w, r))
			}
			goto waw
		}
	}
waw:
	// WAW: overlapping writes must land in source order, and can never
	// share a long instruction (commit order within one cycle follows
	// slot position, not source order).
	for _, wa := range a.s.Writes() {
		for _, wb := range b.s.Writes() {
			if !wa.Overlaps(wb) {
				continue
			}
			legal := a.li != b.li && (dueA < dueB || (dueA == dueB && a.li < b.li))
			if !legal {
				v.add(slotViol(KindWAW, b,
					fmt.Sprintf("write to %v (lands li=%d) conflicts with the older write (seq %d, lands li=%d)",
						wb, dueB, a.s.Seq, dueA), wa, wb))
			}
			return
		}
	}
}

// --- Phase E': source-forwarding justification --------------------------

// checkSrcRenames proves every forwarded source operand reads the newest
// value of its architectural location: the named renaming register was
// produced by an older instruction renaming exactly that location, and no
// instruction between producer and consumer redefines it.
func (v *verifier) checkSrcRenames() {
	for i := range v.refs {
		c := &v.refs[i]
		if c.s.IsCopy {
			continue
		}
		for _, p := range c.s.SrcRenames {
			if p.Loc.Kind == isa.LocMem {
				v.add(slotViol(KindSrcRename, c, "memory operands are never source-forwarded", p.Loc))
				continue
			}
			prod, ok := v.producers[p.Reg]
			if !ok {
				v.add(slotViol(KindSrcRename, c,
					fmt.Sprintf("reads %v%d but no slot renames into it", p.Reg.Class, p.Reg.Idx), p.Loc))
				continue
			}
			if pl := v.prodLoc[p.Reg]; pl != p.Loc {
				v.add(slotViol(KindSrcRename, c,
					fmt.Sprintf("forwards %v from %v%d, which renames %v", p.Loc, p.Reg.Class, p.Reg.Idx, pl),
					p.Loc, pl))
				continue
			}
			if prod.s.Seq >= c.s.Seq {
				v.add(slotViol(KindSrcRename, c,
					fmt.Sprintf("forwards %v from a younger producer (seq %d)", p.Loc, prod.s.Seq), p.Loc))
				continue
			}
			if !v.haveTrace {
				continue
			}
			for j := range v.refs {
				q := &v.refs[j]
				if q.s.IsCopy || q.s.Seq <= prod.s.Seq || q.s.Seq >= c.s.Seq {
					continue
				}
				for _, w := range q.semW {
					if w.Overlaps(p.Loc) {
						v.add(slotViol(KindSrcRename, c,
							fmt.Sprintf("forwarded %v is stale: seq %d redefines it between producer (seq %d) and consumer",
								p.Loc, q.s.Seq, prod.s.Seq), p.Loc))
					}
				}
			}
		}
	}
}

// --- Phase F: memory order fields and cross bits ------------------------

func (v *verifier) checkMemOrder() {
	var mems []*ref
	var direct []*ref // non-copy memory operations
	for i := range v.refs {
		rf := &v.refs[i]
		if rf.s.IsMem {
			mems = append(mems, rf)
			if !rf.s.IsCopy {
				direct = append(direct, rf)
			}
		}
	}
	sort.Slice(direct, func(i, j int) bool { return direct[i].s.Seq < direct[j].s.Seq })
	for rank, rf := range direct {
		if int(rf.s.Order) != rank {
			v.add(slotViol(KindMemOrder, rf,
				fmt.Sprintf("order field %d, but the trace makes it memory access %d of the block",
					rf.s.Order, rank)))
		}
	}
	// Cross bits: if a younger access executes in an earlier cycle than an
	// older one (and they are not both loads), the younger must carry the
	// cross bit — the engine's aliasing detection only compares accesses
	// recorded in the cross load/store lists.
	for _, a := range mems {
		for _, b := range mems {
			if a.s.Order >= b.s.Order {
				continue
			}
			if b.li < a.li && (a.s.IsStore || b.s.IsStore) && !b.s.Cross {
				v.add(slotViol(KindMemOrder, b,
					fmt.Sprintf("order-%d access overtakes the order-%d access at li=%d without its cross bit: runtime aliasing would go undetected",
						b.s.Order, a.s.Order, a.li)))
			}
		}
	}
	if v.b.Conservative {
		for i := 1; i < len(direct); i++ {
			if direct[i-1].li >= direct[i].li {
				v.add(slotViol(KindMemOrder, direct[i],
					fmt.Sprintf("conservative block reorders memory: order-%d access at li=%d does not follow order-%d at li=%d",
						direct[i].s.Order, direct[i].li, direct[i-1].s.Order, direct[i-1].li)))
			}
		}
	}
}

// --- Phase G: lowered-form agreement ------------------------------------

func (v *verifier) checkLowered(low *vliw.LoweredBlock) {
	if low == nil {
		return // schedule-only verification
	}
	if err := vliw.CheckLowered(v.b, low, v.cfg.NWin); err != nil {
		viol := Violation{Kind: KindLowered, Cycle: -1, Slot: -1, Detail: err.Error()}
		if mm, ok := err.(*vliw.LowerMismatchError); ok {
			viol.Cycle, viol.Slot = mm.Line, mm.Slot
		}
		v.add(viol)
	}
}

// --- helpers ------------------------------------------------------------

func locLess(a, b isa.Loc) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Idx != b.Idx {
		return a.Idx < b.Idx
	}
	if a.Addr != b.Addr {
		return a.Addr < b.Addr
	}
	return a.Size < b.Size
}

// sameLocMultiset compares two footprints as multisets.
func sameLocMultiset(a, b []isa.Loc) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]isa.Loc(nil), a...)
	bs := append([]isa.Loc(nil), b...)
	sort.Slice(as, func(i, j int) bool { return locLess(as[i], as[j]) })
	sort.Slice(bs, func(i, j int) bool { return locLess(bs[i], bs[j]) })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

package vliw

import (
	"math"

	"dtsvliw/internal/isa"
	"dtsvliw/internal/sched"
)

// Block lowering (DESIGN.md §11): when the VLIW Engine first enters a
// block from the VLIW Cache, the block is lowered once into a flat
// micro-op form, the software analogue of the paper's decoded-instruction
// cache line (§3.4, Table 1), and the form stays on the line for later
// entries. Every operand is pre-resolved to a handle — an architectural
// register index or a flattened renaming-register number — so the
// engine's hot loop dispatches on a dense op code and never re-walks
// sched.Slot rename lists. The lowered form is the only one the engine
// executes. Lower returns nil for a block it cannot represent, which a
// correct scheduler never produces under a geometry of at most
// MaxBlockSlots slots; the machine reports such a block as an error.

// Operand handles. A handle ≥ 0 is an architectural index into the file
// the operand position implies (integer registers are physical,
// window-resolved at lowering time from the slot's recorded CWP; the
// ICC/FCC/Y/CWP singletons use 0). A handle < 0 is ^flat, a flattened
// renaming-register index into the engine's epoch-stamped arena.
// hDiscard marks a write to physical register 0, which is dropped.
const hDiscard = int32(-1) << 30

// lbr is a pre-resolved conditional or indirect branch, evaluated against
// pre-LI state in tag order (paper §3.8).
type lbr struct {
	tag      uint8
	kind     uint8 // lbrICC, lbrFCC or lbrJmpl
	cond     uint8
	useImm   bool
	brTaken  bool   // recorded trace direction
	a, b     int32  // icc/fcc handle, or JMPL rs1/rs2 handles
	imm      uint32 // JMPL displacement
	addr     uint32 // branch's SPARC address
	target   uint32 // static taken target (conditional branches)
	brTarget uint32 // recorded trace target
	seq      uint64
}

const (
	lbrICC uint8 = iota
	lbrFCC
	lbrJmpl
)

// lcopy is one renaming register a lowered copy instruction commits.
type lcopy struct {
	flat int32
	kind isa.LocKind
	idx  uint16
}

// lop is one lowered slot. Operand meaning depends on op; the handle
// assignment mirrors the order of arch.State.exec's register, flag and
// memory accesses, so the effects are emitted in the order the
// sequential interpreter performs them. The
// variable-length lists live in the block's flat arrays and are
// addressed by [lo, hi) ranges, which keeps a lop small and comparable
// with ==.
type lop struct {
	op     isa.Op
	isCopy bool
	tag    uint8
	lat    uint8 // LatOr1, for the multicycle due line
	useImm bool

	// stage holds the slot's register writes in the scratch arenas until
	// the end of its long instruction (or its latency); without it they
	// land in place as the slot executes (see lowerer.stage).
	stage bool

	// Memory metadata (paper §3.10), copied from the slot.
	isStore    bool
	cross      bool
	memRenamed bool
	memSize    uint8
	order      uint16

	a, b   int32 // primary source handles
	c, e0  int32 // extra sources (icc/y, double-word pairs, store data)
	d0, d1 int32 // destination handles
	e1     int32 // extra destination (MULSCC's Y)
	imm    uint32
	addr   uint32 // slot's SPARC address (diagnostics, JMPL/CALL link)

	// rens[ren0:ren1] lists every rename target of the slot; a deferred
	// exception is stashed in all of them (paper §3.8). rens[mem0:mem1]
	// lists the memory renaming registers a split store's buffered write
	// is routed to. copies[cp0:cp1] is a copy slot's commit list.
	ren0, ren1 uint16
	mem0, mem1 uint16
	cp0, cp1   uint16
}

// lline is one lowered long instruction: brs[br0:br1] are its branches
// for phase-1 resolution and ops[op0:op1] every valid slot, in slot
// order, for phase-2 execution.
type lline struct {
	br0, br1 uint16
	op0, op1 uint16
}

// maxLowered bounds every flat array of a LoweredBlock, so the uint16
// ranges above can address it.
const maxLowered = math.MaxUint16

// maxRenameTargets bounds what one slot adds to a LoweredBlock's rens
// and copies arrays. An operation writes at most three locations
// (MULSCC: rd, icc and y) and the scheduler renames each at most once, so
// a slot has at most three rename targets and a copy slot commits at
// most three renaming registers. A renamed store's single memory write
// is listed twice (among all targets, then among the memory targets),
// which stays within the bound.
const maxRenameTargets = 3

// MaxBlockSlots is the largest block geometry, in Width×Height slots,
// whose every block fits the lowered form: ops and branches take at most
// one array entry per slot, rename targets and copies at most
// maxRenameTargets. core.Config.Validate refuses larger geometries.
const MaxBlockSlots = maxLowered / maxRenameTargets

// iregWords is the size of a write set's integer bitmask: nine words
// cover isa.NumPhysRegs(32) = 520 registers, the largest file
// core.Config.Validate accepts.
const iregWords = 9

// LoweredBlock is the decode-once executable form of a scheduled block,
// stored alongside it in the VLIW Cache. All of its storage is five flat
// arrays, which LowerInto reuses when it lowers another block into the
// same LoweredBlock.
type LoweredBlock struct {
	b        *sched.Block
	lines    []lline
	ops      []lop
	brs      []lbr
	rens     []int32 // flat rename targets, addressed by lop ranges
	copies   []lcopy
	renTotal int // flattened renaming registers across all classes

	// The block's write set: every physical integer register (iregs) and
	// FP register (fregs) a slot or a copy writes architecturally. Block
	// entry checkpoints only these and the singletons.
	iregs [iregWords]uint64
	fregs uint32
}

// Block returns the scheduled block this lowering was produced from.
func (lb *LoweredBlock) Block() *sched.Block { return lb.b }

// lowerer carries the per-block context of one lowering pass.
type lowerer struct {
	b    *sched.Block
	lb   *LoweredBlock
	nwin int
	base [sched.NumRenameClasses]int
	fail bool

	// The staging analysis (stage). reads and writes hold the location
	// keys of the slot being lowered, noted as its handles resolve.
	reads   [4]int32 // FADDD, FCMPD, STD and MULSCC read four
	writes  [maxRenameTargets]int32
	nreads  int
	nwrites int
	// liw lists the keys the earlier slots of the current long
	// instruction write, with their op index; liKeys filters lookups in
	// it.
	liw    [32]keyWriter
	nliw   int
	liKeys keyFilter
	// land lists the keys multicycle slots write, by the long
	// instruction at whose end the write lands.
	land  [32]landing
	nland int
	// Every slot of the long instructions up to stageThrough is staged,
	// because a table above overflowed and the analysis cannot tell.
	stageThrough int
}

// Location keys name the registers the staging analysis tracks: a
// renaming register by its (negative) handle, an integer register by its
// physical index, then the FP registers and the ICC, FCC, Y and CWP
// singletons above the largest integer file.
const (
	keyF   = iregWords * 64
	keyICC = keyF + 32 // keyICC + (kind - isa.LocICC) for the singletons
)

func singletonKey(k isa.LocKind) int32 { return keyICC + int32(k-isa.LocICC) }

// keyWriter is a location key and the index of the op writing it.
type keyWriter struct {
	key int32
	op  int32
}

// landing is a location key a multicycle slot writes and the long
// instruction at whose end the write lands.
type landing struct {
	due int32
	key int32
}

// keyFilter is a 512-bit filter over location keys: a clear bit proves a
// key absent.
type keyFilter [8]uint64

func (f *keyFilter) add(k int32)      { f[uint32(k)%512/64] |= 1 << (uint32(k) % 64) }
func (f *keyFilter) has(k int32) bool { return f[uint32(k)%512/64]&(1<<(uint32(k)%64)) != 0 }

// read notes a location key the slot being lowered reads in phase 2.
func (lo *lowerer) read(k int32) {
	if lo.nreads == len(lo.reads) { // no operation reads more
		lo.stageThrough = lo.b.NumLIs
		return
	}
	lo.reads[lo.nreads] = k
	lo.nreads++
}

// write notes a location key the slot being lowered writes.
func (lo *lowerer) write(k int32) {
	if lo.nwrites == len(lo.writes) { // no operation writes more
		lo.stageThrough = lo.b.NumLIs
		return
	}
	lo.writes[lo.nwrites] = k
	lo.nwrites++
}

// beginLine readies the staging analysis for long instruction li: the
// landings of earlier lines are dropped.
func (lo *lowerer) beginLine(li int) {
	n := 0
	for _, l := range lo.land[:lo.nland] {
		if int(l.due) >= li {
			lo.land[n] = l
			n++
		}
	}
	lo.nland = n
	lo.nliw = 0
	lo.liKeys = keyFilter{}
}

// endLine stages every op of long instruction li, ops[op0:op1], when a
// table of the analysis overflowed.
func (lo *lowerer) endLine(li, op0, op1 int) {
	if li <= lo.stageThrough {
		for i := op0; i < op1; i++ {
			lo.lb.ops[i].stage = true
		}
	}
}

// stage applies the staging rules to ops[i], just lowered into long
// instruction li. A slot's writes are staged when
//
//   - a later slot of li, in slot order, reads a location it writes: the
//     reader must see the state before li;
//   - a multicycle slot of an earlier line writes the same location and
//     its write lands at the end of li: it lands before li's staged
//     writes, and the younger value must land last;
//   - its latency is above one: its writes queue until they land.
//
// Phase-1 branch reads come before every phase-2 write, so they do not
// count; nor does memory, whose stores always commit at the end.
func (lo *lowerer) stage(li, i int) {
	ops := lo.lb.ops
	op := &ops[i]
	if op.lat > 1 {
		op.stage = true
	}
	for _, k := range lo.reads[:lo.nreads] {
		if !lo.liKeys.has(k) {
			continue
		}
		for _, w := range lo.liw[:lo.nliw] {
			if w.key == k {
				ops[w.op].stage = true
			}
		}
	}
	for _, k := range lo.writes[:lo.nwrites] {
		for _, l := range lo.land[:lo.nland] {
			if int(l.due) == li && l.key == k {
				op.stage = true
			}
		}
		if lo.nliw == len(lo.liw) {
			lo.stageThrough = max(lo.stageThrough, li)
			continue
		}
		lo.liw[lo.nliw] = keyWriter{key: k, op: int32(i)}
		lo.nliw++
		lo.liKeys.add(k)
	}
	// A multicycle write landing inside the block is a landing for the
	// slots of its due line.
	if due := li + int(op.lat) - 1; due > li && due < lo.b.NumLIs {
		for _, k := range lo.writes[:lo.nwrites] {
			if lo.nland == len(lo.land) {
				lo.stageThrough = max(lo.stageThrough, due)
				continue
			}
			lo.land[lo.nland] = landing{due: int32(due), key: k}
			lo.nland++
		}
	}
	lo.nreads, lo.nwrites = 0, 0
}

func (lo *lowerer) flatOf(r sched.RenameReg) int32 {
	if int(r.Idx) >= int(lo.b.Renames[r.Class]) {
		lo.fail = true // unallocated register: a scheduler invariant violation
		return 0
	}
	return int32(lo.base[r.Class] + int(r.Idx))
}

func (lo *lowerer) renH(r sched.RenameReg) int32 { return ^lo.flatOf(r) }

// Lower translates block b into its flat micro-op form. It returns nil
// when the block holds a construct lowering does not represent (a
// non-schedulable operation or an unallocated renaming register) or
// needs more entries than the flat arrays address. The scheduler emits
// neither for schedulable traces under a geometry of at most
// MaxBlockSlots, so nil means a broken invariant.
func Lower(b *sched.Block, nwin int) *LoweredBlock {
	return LowerInto(new(LoweredBlock), b, nwin)
}

// LowerInto is Lower writing into dst's storage: dst's arrays are reused
// when large enough and grown otherwise, so lowering into a recycled
// LoweredBlock allocates nothing once its arrays fit. It returns dst, or
// nil when b is not representable; dst's storage stays reusable either
// way, and its previous contents are gone.
func LowerInto(dst *LoweredBlock, b *sched.Block, nwin int) *LoweredBlock {
	// Counting pass: size every flat array before anything is written.
	var nops, nbrs, nrens, ncopies int
	for li := 0; li < b.NumLIs; li++ {
		for _, s := range b.LIs[li] {
			if s == nil {
				continue
			}
			nops++
			if s.IsCondOrIndirectBranch() {
				nbrs++
			}
			nrens += len(s.Renames)
			for _, p := range s.Renames {
				if p.Loc.Kind == isa.LocMem {
					nrens++
				}
			}
			if s.IsCopy {
				ncopies += len(s.Copies)
			}
		}
	}
	if max(nops, nbrs, nrens, ncopies) > maxLowered {
		return nil
	}

	lo := lowerer{b: b, lb: dst, nwin: nwin, stageThrough: -1}
	tot := 0
	for c := 0; c < int(sched.NumRenameClasses); c++ {
		lo.base[c] = tot
		tot += int(b.Renames[c])
	}
	*dst = LoweredBlock{
		b:        b,
		lines:    reuse(dst.lines, b.NumLIs),
		ops:      reuse(dst.ops, nops),
		brs:      reuse(dst.brs, nbrs),
		rens:     reuse(dst.rens, nrens),
		copies:   reuse(dst.copies, ncopies),
		renTotal: tot,
	}
	for li := 0; li < b.NumLIs; li++ {
		ll := lline{br0: uint16(len(dst.brs)), op0: uint16(len(dst.ops))}
		lo.beginLine(li)
		for _, s := range b.LIs[li] {
			if s == nil {
				continue
			}
			if s.IsCondOrIndirectBranch() {
				dst.brs = append(dst.brs, lo.lowerBranch(s))
			}
			op, ok := lo.lowerSlot(s)
			if !ok || lo.fail {
				return nil
			}
			dst.ops = append(dst.ops, op)
			lo.stage(li, len(dst.ops)-1)
		}
		ll.br1, ll.op1 = uint16(len(dst.brs)), uint16(len(dst.ops))
		lo.endLine(li, int(ll.op0), int(ll.op1))
		dst.lines = append(dst.lines, ll)
	}
	return dst
}

// reuse returns s emptied with room for n elements: s's own array when
// it is large enough, a new one of exactly n otherwise.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// lowerBranch pre-resolves a conditional or indirect branch for phase-1
// evaluation. Branch operands read pre-LI state through source forwarding
// but never the multicycle bypass.
func (lo *lowerer) lowerBranch(s *sched.Slot) lbr {
	br := lbr{
		tag: s.Tag, cond: s.Inst.Cond, addr: s.Addr, seq: s.Seq,
		brTaken: s.BrTaken, brTarget: s.BrTarget,
	}
	switch s.Inst.Op {
	case isa.OpBICC:
		br.kind = lbrICC
		br.a = lo.rlh(s, isa.LocICC)
		br.target = s.Inst.BranchTarget(s.Addr)
	case isa.OpFBFCC:
		br.kind = lbrFCC
		br.a = lo.rlh(s, isa.LocFCC)
		br.target = s.Inst.BranchTarget(s.Addr)
	default: // JMPL
		br.kind = lbrJmpl
		br.a = lo.rh(s, s.Inst.Rs1)
		if s.Inst.UseImm {
			br.useImm = true
			br.imm = uint32(s.Inst.Imm)
		} else {
			br.b = lo.rh(s, s.Inst.Rs2)
		}
	}
	return br
}

// rh resolves an integer source register (window-resolved, then source
// forwarding). Physical register 0 reads as architectural zero even when
// a rename pair nominally covers it, as in the sequential interpreter.
// Every source and destination resolver notes the location key it
// resolves for the staging analysis.
func (lo *lowerer) rh(s *sched.Slot, r uint8) int32 {
	p := isa.PhysReg(s.CWP, r, lo.nwin)
	if p == 0 {
		return 0
	}
	h := int32(p)
	if rr, ok := s.SrcRenameTarget(isa.IReg(p)); ok {
		h = lo.renH(rr)
	}
	lo.read(h)
	return h
}

// whPhys resolves an integer destination already in physical form.
func (lo *lowerer) whPhys(s *sched.Slot, p uint16) int32 {
	if p == 0 {
		return hDiscard
	}
	h := int32(p)
	if rr, ok := s.RenameTarget(isa.IReg(p)); ok {
		h = lo.renH(rr)
	} else {
		lo.writeIReg(p)
	}
	lo.write(h)
	return h
}

// writeIReg adds physical integer register p to the block's write set.
// A register beyond the bitmask (more windows than core.Config.Validate
// accepts) fails the lowering.
func (lo *lowerer) writeIReg(p uint16) {
	if p >= keyF {
		lo.fail = true
		return
	}
	lo.lb.iregs[p/64] |= 1 << (p % 64)
}

func (lo *lowerer) wh(s *sched.Slot, r uint8) int32 {
	return lo.whPhys(s, isa.PhysReg(s.CWP, r, lo.nwin))
}

// rfh/wfh resolve floating-point source/destination registers.
func (lo *lowerer) rfh(s *sched.Slot, r uint8) int32 {
	if rr, ok := s.SrcRenameTarget(isa.FReg(uint16(r))); ok {
		h := lo.renH(rr)
		lo.read(h)
		return h
	}
	lo.read(keyF + int32(r))
	return int32(r)
}

func (lo *lowerer) wfh(s *sched.Slot, r uint8) int32 {
	if rr, ok := s.RenameTarget(isa.FReg(uint16(r))); ok {
		h := lo.renH(rr)
		lo.write(h)
		return h
	}
	lo.lb.fregs |= 1 << (r & 31)
	lo.write(keyF + int32(r))
	return int32(r)
}

// rlh/wlh resolve the ICC/FCC/Y/CWP singleton locations (0 means the
// architectural register).
func (lo *lowerer) rlh(s *sched.Slot, k isa.LocKind) int32 {
	if rr, ok := s.SrcRenameTarget(isa.Loc{Kind: k}); ok {
		h := lo.renH(rr)
		lo.read(h)
		return h
	}
	lo.read(singletonKey(k))
	return 0
}

func (lo *lowerer) wlh(s *sched.Slot, k isa.LocKind) int32 {
	if rr, ok := s.RenameTarget(isa.Loc{Kind: k}); ok {
		h := lo.renH(rr)
		lo.write(h)
		return h
	}
	lo.write(singletonKey(k))
	return 0
}

// copyTarget notes a copy's architectural destination: a register or
// singleton location key; a memory copy releases a store, which always
// commits at the end of the long instruction.
func (lo *lowerer) copyTarget(l isa.Loc) {
	switch l.Kind {
	case isa.LocIReg:
		if l.Idx != 0 {
			lo.writeIReg(l.Idx)
			lo.write(int32(l.Idx))
		}
	case isa.LocFReg:
		lo.lb.fregs |= 1 << (l.Idx & 31)
		lo.write(keyF + int32(l.Idx&31))
	case isa.LocICC, isa.LocFCC, isa.LocY, isa.LocCWP:
		lo.write(singletonKey(l.Kind))
	}
}

// lowerSlot translates one slot, leaving the location keys of its phase-2
// reads and its writes in lo.reads and lo.writes. ok is false for
// constructs lowering does not represent (non-schedulable ops; they never
// reach blocks).
func (lo *lowerer) lowerSlot(s *sched.Slot) (lop, bool) {
	op := lop{
		tag: s.Tag, lat: uint8(s.LatOr1()), addr: s.Addr,
		isStore: s.IsStore, cross: s.Cross,
		memRenamed: s.MemRenamed, memSize: s.MemSize, order: s.Order,
	}
	lo.nreads, lo.nwrites = 0, 0 // drop lowerBranch's phase-1 reads
	lb := lo.lb
	op.ren0 = uint16(len(lb.rens))
	for _, p := range s.Renames {
		lb.rens = append(lb.rens, lo.flatOf(p.Reg))
	}
	op.ren1, op.mem0 = uint16(len(lb.rens)), uint16(len(lb.rens))
	for _, p := range s.Renames {
		if p.Loc.Kind == isa.LocMem {
			lb.rens = append(lb.rens, lo.flatOf(p.Reg))
		}
	}
	op.mem1 = uint16(len(lb.rens))
	if s.IsCopy {
		op.isCopy = true
		op.cp0 = uint16(len(lb.copies))
		for _, p := range s.Copies {
			flat := lo.flatOf(p.Reg)
			lb.copies = append(lb.copies, lcopy{flat: flat, kind: p.Loc.Kind, idx: p.Loc.Idx})
			lo.read(^flat)
			lo.copyTarget(p.Loc)
		}
		op.cp1 = uint16(len(lb.copies))
		return op, true
	}

	in := &s.Inst
	op.op = in.Op
	// op2 of format-3 instructions: immediate or rs2.
	setOp2 := func() {
		if in.UseImm {
			op.useImm = true
			op.imm = uint32(in.Imm)
		} else {
			op.b = lo.rh(s, in.Rs2)
		}
	}

	switch in.Op {
	case isa.OpSETHI:
		op.d0 = lo.wh(s, in.Rd)
		op.imm = uint32(in.Imm) << 10

	case isa.OpADD, isa.OpSUB, isa.OpAND, isa.OpANDN, isa.OpOR, isa.OpORN,
		isa.OpXOR, isa.OpXNOR, isa.OpSLL, isa.OpSRL, isa.OpSRA:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.d0 = lo.wh(s, in.Rd)

	case isa.OpADDCC, isa.OpSUBCC, isa.OpANDCC, isa.OpANDNCC, isa.OpORCC,
		isa.OpORNCC, isa.OpXORCC, isa.OpXNORCC:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.d0 = lo.wh(s, in.Rd)
		op.d1 = lo.wlh(s, isa.LocICC)

	case isa.OpADDX, isa.OpSUBX:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.c = lo.rlh(s, isa.LocICC)
		op.d0 = lo.wh(s, in.Rd)

	case isa.OpADDXCC, isa.OpSUBXCC:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.c = lo.rlh(s, isa.LocICC)
		op.d0 = lo.wh(s, in.Rd)
		op.d1 = lo.wlh(s, isa.LocICC)

	case isa.OpMULSCC:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.c = lo.rlh(s, isa.LocICC)
		op.e0 = lo.rlh(s, isa.LocY)
		op.d0 = lo.wh(s, in.Rd)
		op.d1 = lo.wlh(s, isa.LocICC)
		op.e1 = lo.wlh(s, isa.LocY)

	case isa.OpRDY:
		op.a = lo.rlh(s, isa.LocY)
		op.d0 = lo.wh(s, in.Rd)

	case isa.OpWRY:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.d0 = lo.wlh(s, isa.LocY)

	case isa.OpSAVE, isa.OpRESTORE:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		var ncwp uint8
		if in.Op == isa.OpSAVE {
			ncwp = isa.SaveCWP(s.CWP, lo.nwin)
		} else {
			ncwp = isa.RestoreCWP(s.CWP, lo.nwin)
		}
		op.c = int32(ncwp)
		op.d1 = lo.wlh(s, isa.LocCWP)
		// Rd resolves in the new window (arch.State.exec writes after
		// SetCWP).
		op.d0 = lo.whPhys(s, isa.PhysReg(ncwp, in.Rd, lo.nwin))

	case isa.OpCALL:
		// The link value is the call's own address (op.addr).
		op.d0 = lo.whPhys(s, isa.PhysReg(s.CWP, 15, lo.nwin))

	case isa.OpJMPL:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.d0 = lo.wh(s, in.Rd)

	case isa.OpBICC, isa.OpFBFCC:
		// Resolved in phase 1; no phase-2 effects (matches
		// arch.State.exec, which only evaluates the condition).

	case isa.OpLD, isa.OpLDUB, isa.OpLDSB, isa.OpLDUH, isa.OpLDSH:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.d0 = lo.wh(s, in.Rd)

	case isa.OpLDD:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.d0 = lo.wh(s, in.Rd&^1)
		op.d1 = lo.wh(s, in.Rd|1)

	case isa.OpLDF:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.d0 = lo.wfh(s, in.Rd)

	case isa.OpLDDF:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.d0 = lo.wfh(s, in.Rd&^1)
		op.d1 = lo.wfh(s, in.Rd|1)

	case isa.OpST, isa.OpSTB, isa.OpSTH:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.c = lo.rh(s, in.Rd)

	case isa.OpSTD:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.c = lo.rh(s, in.Rd&^1)
		op.e0 = lo.rh(s, in.Rd|1)

	case isa.OpSTF:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.c = lo.rfh(s, in.Rd)

	case isa.OpSTDF:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.c = lo.rfh(s, in.Rd&^1)
		op.e0 = lo.rfh(s, in.Rd|1)

	case isa.OpFMOVS, isa.OpFNEGS, isa.OpFABSS, isa.OpFITOS, isa.OpFSTOI:
		op.a = lo.rfh(s, in.Rs2)
		op.d0 = lo.wfh(s, in.Rd)

	case isa.OpFITOD, isa.OpFSTOD:
		op.a = lo.rfh(s, in.Rs2)
		op.d0 = lo.wfh(s, in.Rd&^1)
		op.d1 = lo.wfh(s, in.Rd|1)

	case isa.OpFDTOI, isa.OpFDTOS:
		op.a = lo.rfh(s, in.Rs2&^1)
		op.b = lo.rfh(s, in.Rs2|1)
		op.d0 = lo.wfh(s, in.Rd)

	case isa.OpFADDS, isa.OpFSUBS, isa.OpFMULS, isa.OpFDIVS:
		op.a = lo.rfh(s, in.Rs1)
		op.b = lo.rfh(s, in.Rs2)
		op.d0 = lo.wfh(s, in.Rd)

	case isa.OpFADDD, isa.OpFSUBD, isa.OpFMULD, isa.OpFDIVD:
		op.a = lo.rfh(s, in.Rs1&^1)
		op.b = lo.rfh(s, in.Rs1|1)
		op.c = lo.rfh(s, in.Rs2&^1)
		op.e0 = lo.rfh(s, in.Rs2|1)
		op.d0 = lo.wfh(s, in.Rd&^1)
		op.d1 = lo.wfh(s, in.Rd|1)

	case isa.OpFCMPS:
		op.a = lo.rfh(s, in.Rs1)
		op.b = lo.rfh(s, in.Rs2)
		op.d0 = lo.wlh(s, isa.LocFCC)

	case isa.OpFCMPD:
		op.a = lo.rfh(s, in.Rs1&^1)
		op.b = lo.rfh(s, in.Rs1|1)
		op.c = lo.rfh(s, in.Rs2&^1)
		op.e0 = lo.rfh(s, in.Rs2|1)
		op.d0 = lo.wlh(s, isa.LocFCC)

	default:
		// Ticc, LDSTUB, SWAP, UNIMP: non-schedulable, never in blocks.
		return op, false
	}
	return op, true
}

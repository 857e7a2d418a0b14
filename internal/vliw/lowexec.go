package vliw

import (
	"fmt"
	"math"

	"dtsvliw/internal/isa"
)

// Lowered-op execution for ExecLI's phases: every operand is a
// pre-resolved handle and dispatch is a dense switch on isa.Op, so the
// hot loop performs no rename-list walks, no interface calls and no
// allocation.

// Handle accessors. A handle ≥ 0 addresses the architectural file the
// operand position implies; < 0 is ^flat into the epoch-stamped rename
// arena. Reads never use the multicycle bypass (only copies do).

func (e *Engine) lrdReg(h int32) uint32 {
	if h >= 0 {
		return e.st.ReadReg(uint16(h))
	}
	return e.renValue(^h)
}

func (e *Engine) lrdF(h int32) uint32 {
	if h >= 0 {
		return e.st.ReadF(uint8(h))
	}
	return e.renValue(^h)
}

func (e *Engine) lrdICC(h int32) uint8 {
	if h >= 0 {
		return e.st.ICC()
	}
	return uint8(e.renValue(^h))
}

func (e *Engine) lrdFCC(h int32) uint8 {
	if h >= 0 {
		return e.st.FCC()
	}
	return uint8(e.renValue(^h))
}

func (e *Engine) lrdY(h int32) uint32 {
	if h >= 0 {
		return e.st.Y()
	}
	return e.renValue(^h)
}

// lrdD reads a double from an even/odd handle pair (even = most
// significant word, SPARC convention).
func (e *Engine) lrdD(hHi, hLo int32) float64 {
	hi := uint64(e.lrdF(hHi))
	lo := uint64(e.lrdF(hLo))
	return math.Float64frombits(hi<<32 | lo)
}

// lop2 returns the second ALU operand: the pre-decoded immediate or rs2.
func (e *Engine) lop2(op *lop) uint32 {
	if op.useImm {
		return op.imm
	}
	return e.lrdReg(op.b)
}

// dueNow is the due line of an unstaged slot: its writes land in place,
// in the architectural files or the rename arena, as it executes.
const dueNow = -1

// Emit helpers perform one effect: in place for due dueNow, otherwise
// queued in Engine.pend with its due line. The handle routes it to the
// flat rename arena or an architectural location. They stay small enough
// to inline into execLoweredOp, which calls one per write.

func (e *Engine) lemitReg(h int32, v uint32, due int) {
	switch {
	case h == hDiscard:
	case h < 0:
		e.lemitRen(^h, v, due)
	case due == dueNow:
		e.st.Regs[h] = v
	default:
		e.pend = append(e.pend, pendWrite{due: int32(due), kind: isa.LocIReg,
			idx: uint16(h), val: v})
	}
}

func (e *Engine) lemitF(h int32, v uint32, due int) {
	switch {
	case h < 0:
		e.lemitRen(^h, v, due)
	case due == dueNow:
		e.st.F[h&31] = v
	default:
		e.pend = append(e.pend, pendWrite{due: int32(due), kind: isa.LocFReg,
			idx: uint16(h), val: v})
	}
}

// lemitICC writes the integer condition codes, the singleton most ops
// write.
func (e *Engine) lemitICC(h int32, v uint32, due int) {
	switch {
	case h < 0:
		e.lemitRen(^h, v, due)
	case due == dueNow:
		e.st.SetICC(uint8(v))
	default:
		e.pend = append(e.pend, pendWrite{due: int32(due), kind: isa.LocICC, val: v})
	}
}

// lemitLoc writes one of the FCC/Y/CWP singletons.
func (e *Engine) lemitLoc(h int32, kind isa.LocKind, v uint32, due int) {
	switch {
	case h < 0:
		e.lemitRen(^h, v, due)
	case due == dueNow:
		e.applyWrite(kind, 0, v)
	default:
		e.pend = append(e.pend, pendWrite{due: int32(due), kind: kind, val: v})
	}
}

// lemitRen writes a value to renaming register flat.
func (e *Engine) lemitRen(flat int32, v uint32, due int) {
	if due == dueNow {
		e.ren[flat] = renCell{val: v, stamp: e.epoch}
		return
	}
	e.pend = append(e.pend, pendWrite{due: int32(due), kind: isa.LocRen,
		flat: flat, val: v})
}

func (e *Engine) lemitD(op *lop, v float64, due int) {
	bits := math.Float64bits(v)
	e.lemitF(op.d0, uint32(bits>>32), due)
	e.lemitF(op.d1, uint32(bits), due)
}

// resolveLoweredBranch evaluates a conditional or indirect branch against
// the pre-LI state (reading source-forwarded renaming registers where the
// Scheduler Unit rewrote the operands) and returns its actual direction
// and target.
func (e *Engine) resolveLoweredBranch(br *lbr) (taken bool, target uint32) {
	switch br.kind {
	case lbrICC:
		return isa.EvalICC(br.cond, e.lrdICC(br.a)), br.target
	case lbrFCC:
		return isa.EvalFCC(br.cond, e.lrdFCC(br.a)), br.target
	}
	t := e.lrdReg(br.a)
	if br.useImm {
		t += br.imm
	} else {
		t += e.lrdReg(br.b)
	}
	return true, t
}

// execLoweredCopy commits a copy instruction: each renaming register's
// value is written to its architectural location, in place for due
// dueNow and otherwise queued with a due line of the current long
// instruction (copies always complete in one cycle); memory renaming
// registers release their buffered stores to the per-LI arenas, and each
// released store is one Data Cache access, as a plain store is. A
// deferred exception held in a renaming register surfaces here (paper
// §3.8).
func (e *Engine) execLoweredCopy(op *lop, due int) error {
	for _, c := range e.lb.copies[op.cp0:op.cp1] {
		val, p := e.copySource(c.flat)
		if p != nil && p.exc != nil {
			return p.exc
		}
		switch {
		case c.kind == isa.LocMem:
			var memEA uint32
			if p != nil {
				e.scPend = append(e.scPend, p.st[:p.nst]...)
				e.scMemAddrs = append(e.scMemAddrs, p.memEA)
				memEA = p.memEA
			}
			e.scMemOps = append(e.scMemOps, opMem{
				addr: memEA, size: op.memSize, order: op.order,
				cross: op.cross, isStore: true,
			})
		case due == dueNow:
			e.applyWrite(c.kind, c.idx, val)
		default:
			e.pend = append(e.pend, pendWrite{due: int32(due), kind: c.kind,
				idx: c.idx, val: val})
		}
	}
	return nil
}

// execLoweredOp executes one lowered slot, performing its effects with the
// given due line (dueNow: in place). It reads every operand before its
// first write, and effect order within a slot matches the order of
// arch.State.exec's register, flag and memory accesses exactly.
func (e *Engine) execLoweredOp(op *lop, due int) error {
	switch op.op {
	case isa.OpSETHI:
		e.lemitReg(op.d0, op.imm, due) // imm holds the pre-shifted constant

	case isa.OpADD:
		e.lemitReg(op.d0, e.lrdReg(op.a)+e.lop2(op), due)
	case isa.OpADDCC:
		a, b := e.lrdReg(op.a), e.lop2(op)
		r := a + b
		e.lemitReg(op.d0, r, due)
		e.lemitICC(op.d1, uint32(isa.AddICC(a, b, r, r < a)), due)

	case isa.OpADDX, isa.OpADDXCC:
		a, b := e.lrdReg(op.a), e.lop2(op)
		var c uint32
		if e.lrdICC(op.c)&isa.ICCC != 0 {
			c = 1
		}
		r := a + b + c
		e.lemitReg(op.d0, r, due)
		if op.op == isa.OpADDXCC {
			carry := uint64(a)+uint64(b)+uint64(c) > 0xFFFFFFFF
			e.lemitICC(op.d1, uint32(isa.AddICC(a, b, r, carry)), due)
		}

	case isa.OpSUB:
		e.lemitReg(op.d0, e.lrdReg(op.a)-e.lop2(op), due)
	case isa.OpSUBCC:
		a, b := e.lrdReg(op.a), e.lop2(op)
		r := a - b
		e.lemitReg(op.d0, r, due)
		e.lemitICC(op.d1, uint32(isa.SubICC(a, b, r, a < b)), due)

	case isa.OpSUBX, isa.OpSUBXCC:
		a, b := e.lrdReg(op.a), e.lop2(op)
		var c uint32
		if e.lrdICC(op.c)&isa.ICCC != 0 {
			c = 1
		}
		r := a - b - c
		e.lemitReg(op.d0, r, due)
		if op.op == isa.OpSUBXCC {
			borrow := uint64(a) < uint64(b)+uint64(c)
			e.lemitICC(op.d1, uint32(isa.SubICC(a, b, r, borrow)), due)
		}

	case isa.OpAND:
		e.lemitReg(op.d0, e.lrdReg(op.a)&e.lop2(op), due)
	case isa.OpANDCC:
		r := e.lrdReg(op.a) & e.lop2(op)
		e.lemitReg(op.d0, r, due)
		e.lemitICC(op.d1, uint32(isa.LogicICC(r)), due)
	case isa.OpANDN:
		e.lemitReg(op.d0, e.lrdReg(op.a)&^e.lop2(op), due)
	case isa.OpANDNCC:
		r := e.lrdReg(op.a) &^ e.lop2(op)
		e.lemitReg(op.d0, r, due)
		e.lemitICC(op.d1, uint32(isa.LogicICC(r)), due)
	case isa.OpOR:
		e.lemitReg(op.d0, e.lrdReg(op.a)|e.lop2(op), due)
	case isa.OpORCC:
		r := e.lrdReg(op.a) | e.lop2(op)
		e.lemitReg(op.d0, r, due)
		e.lemitICC(op.d1, uint32(isa.LogicICC(r)), due)
	case isa.OpORN:
		e.lemitReg(op.d0, e.lrdReg(op.a)|^e.lop2(op), due)
	case isa.OpORNCC:
		r := e.lrdReg(op.a) | ^e.lop2(op)
		e.lemitReg(op.d0, r, due)
		e.lemitICC(op.d1, uint32(isa.LogicICC(r)), due)
	case isa.OpXOR:
		e.lemitReg(op.d0, e.lrdReg(op.a)^e.lop2(op), due)
	case isa.OpXORCC:
		r := e.lrdReg(op.a) ^ e.lop2(op)
		e.lemitReg(op.d0, r, due)
		e.lemitICC(op.d1, uint32(isa.LogicICC(r)), due)
	case isa.OpXNOR:
		e.lemitReg(op.d0, e.lrdReg(op.a)^^e.lop2(op), due)
	case isa.OpXNORCC:
		r := e.lrdReg(op.a) ^ ^e.lop2(op)
		e.lemitReg(op.d0, r, due)
		e.lemitICC(op.d1, uint32(isa.LogicICC(r)), due)

	case isa.OpSLL:
		e.lemitReg(op.d0, e.lrdReg(op.a)<<(e.lop2(op)&31), due)
	case isa.OpSRL:
		e.lemitReg(op.d0, e.lrdReg(op.a)>>(e.lop2(op)&31), due)
	case isa.OpSRA:
		e.lemitReg(op.d0, uint32(int32(e.lrdReg(op.a))>>(e.lop2(op)&31)), due)

	case isa.OpMULSCC:
		a := e.lrdReg(op.a)
		icc := e.lrdICC(op.c)
		y := e.lrdY(op.e0)
		nxv := (icc&isa.ICCN != 0) != (icc&isa.ICCV != 0)
		o1 := a >> 1
		if nxv {
			o1 |= 0x80000000
		}
		var o2 uint32
		if y&1 != 0 {
			o2 = e.lop2(op)
		}
		r := o1 + o2
		e.lemitLoc(op.e1, isa.LocY, y>>1|a<<31, due)
		e.lemitReg(op.d0, r, due)
		e.lemitICC(op.d1, uint32(isa.AddICC(o1, o2, r, r < o1)), due)

	case isa.OpRDY:
		e.lemitReg(op.d0, e.lrdY(op.a), due)
	case isa.OpWRY:
		e.lemitLoc(op.d0, isa.LocY, e.lrdReg(op.a)^e.lop2(op), due)

	case isa.OpSAVE, isa.OpRESTORE:
		// op.c holds the statically known new window pointer; the
		// destination register was resolved in that window at lower time.
		v := e.lrdReg(op.a) + e.lop2(op)
		e.lemitLoc(op.d1, isa.LocCWP, uint32(op.c), due)
		e.lemitReg(op.d0, v, due)

	case isa.OpCALL:
		e.lemitReg(op.d0, op.addr, due)

	case isa.OpJMPL:
		t := e.lrdReg(op.a) + e.lop2(op)
		if t&3 != 0 {
			return &isa.AlignmentError{Addr: t, Size: 4}
		}
		e.lemitReg(op.d0, op.addr, due)

	case isa.OpBICC, isa.OpFBFCC:
		// Resolved in phase 1; no architectural effects.

	case isa.OpLD, isa.OpLDUB, isa.OpLDSB, isa.OpLDUH, isa.OpLDSH, isa.OpLDD,
		isa.OpLDF, isa.OpLDDF:
		return e.execLoweredLoad(op, due)
	case isa.OpST, isa.OpSTB, isa.OpSTH, isa.OpSTD, isa.OpSTF, isa.OpSTDF:
		return e.execLoweredStore(op, due)

	case isa.OpFMOVS:
		e.lemitF(op.d0, e.lrdF(op.a), due)
	case isa.OpFNEGS:
		e.lemitF(op.d0, e.lrdF(op.a)^0x80000000, due)
	case isa.OpFABSS:
		e.lemitF(op.d0, e.lrdF(op.a)&^0x80000000, due)

	case isa.OpFITOS:
		e.lemitF(op.d0, math.Float32bits(float32(int32(e.lrdF(op.a)))), due)
	case isa.OpFSTOI:
		f := math.Float32frombits(e.lrdF(op.a))
		e.lemitF(op.d0, uint32(int32(f)), due)
	case isa.OpFITOD:
		e.lemitD(op, float64(int32(e.lrdF(op.a))), due)
	case isa.OpFDTOI:
		e.lemitF(op.d0, uint32(int32(e.lrdD(op.a, op.b))), due)
	case isa.OpFSTOD:
		e.lemitD(op, float64(math.Float32frombits(e.lrdF(op.a))), due)
	case isa.OpFDTOS:
		e.lemitF(op.d0, math.Float32bits(float32(e.lrdD(op.a, op.b))), due)

	case isa.OpFADDS, isa.OpFSUBS, isa.OpFMULS, isa.OpFDIVS:
		a := math.Float32frombits(e.lrdF(op.a))
		b := math.Float32frombits(e.lrdF(op.b))
		var r float32
		switch op.op {
		case isa.OpFADDS:
			r = a + b
		case isa.OpFSUBS:
			r = a - b
		case isa.OpFMULS:
			r = a * b
		default:
			r = a / b
		}
		e.lemitF(op.d0, math.Float32bits(r), due)

	case isa.OpFADDD, isa.OpFSUBD, isa.OpFMULD, isa.OpFDIVD:
		a := e.lrdD(op.a, op.b)
		b := e.lrdD(op.c, op.e0)
		var r float64
		switch op.op {
		case isa.OpFADDD:
			r = a + b
		case isa.OpFSUBD:
			r = a - b
		case isa.OpFMULD:
			r = a * b
		default:
			r = a / b
		}
		e.lemitD(op, r, due)

	case isa.OpFCMPS:
		a := math.Float32frombits(e.lrdF(op.a))
		b := math.Float32frombits(e.lrdF(op.b))
		e.lemitLoc(op.d0, isa.LocFCC, uint32(isa.CmpFCC(float64(a), float64(b))), due)
	case isa.OpFCMPD:
		e.lemitLoc(op.d0, isa.LocFCC,
			uint32(isa.CmpFCC(e.lrdD(op.a, op.b), e.lrdD(op.c, op.e0))), due)

	default:
		return fmt.Errorf("vliw: cannot execute lowered %v at %#08x", op.op, op.addr)
	}
	return nil
}

// effAddr computes a lowered memory slot's effective address and checks
// its alignment.
func (e *Engine) effAddr(op *lop) (uint32, error) {
	ea := e.lrdReg(op.a) + e.lop2(op)
	var alignment uint32
	switch op.memSize {
	case 2:
		alignment = 1
	case 4:
		alignment = 3
	case 8:
		alignment = 7
	}
	if ea&alignment != 0 {
		return 0, &isa.AlignmentError{Addr: ea, Size: op.memSize}
	}
	return ea, nil
}

// recordMem notes a memory slot's access for Data Cache timing and its
// aliasing metadata for phase 3.
func (e *Engine) recordMem(op *lop, ea uint32) {
	e.scMemAddrs = append(e.scMemAddrs, ea)
	e.scMemOps = append(e.scMemOps, opMem{
		addr: ea, size: op.memSize, order: op.order,
		cross: op.cross, isStore: op.isStore,
	})
}

// execLoweredLoad executes one lowered load: effective address,
// alignment check, then reads through loadMem (honouring the
// data-store-list overlay). On any error nothing has been emitted
// (matching arch.State.exec, whose memory errors all precede the first
// write).
func (e *Engine) execLoweredLoad(op *lop, due int) error {
	ea, err := e.effAddr(op)
	if err != nil {
		return err
	}
	switch op.op {
	case isa.OpLD:
		v, err := e.loadMem(ea, 4)
		if err != nil {
			return err
		}
		e.lemitReg(op.d0, v, due)
	case isa.OpLDUB:
		v, err := e.loadMem(ea, 1)
		if err != nil {
			return err
		}
		e.lemitReg(op.d0, v, due)
	case isa.OpLDSB:
		v, err := e.loadMem(ea, 1)
		if err != nil {
			return err
		}
		e.lemitReg(op.d0, uint32(int32(int8(v))), due)
	case isa.OpLDUH:
		v, err := e.loadMem(ea, 2)
		if err != nil {
			return err
		}
		e.lemitReg(op.d0, v, due)
	case isa.OpLDSH:
		v, err := e.loadMem(ea, 2)
		if err != nil {
			return err
		}
		e.lemitReg(op.d0, uint32(int32(int16(v))), due)
	case isa.OpLDD:
		v0, err := e.loadMem(ea, 4)
		if err != nil {
			return err
		}
		v1, err := e.loadMem(ea+4, 4)
		if err != nil {
			return err
		}
		e.lemitReg(op.d0, v0, due)
		e.lemitReg(op.d1, v1, due)
	case isa.OpLDF:
		v, err := e.loadMem(ea, 4)
		if err != nil {
			return err
		}
		e.lemitF(op.d0, v, due)
	case isa.OpLDDF:
		v0, err := e.loadMem(ea, 4)
		if err != nil {
			return err
		}
		v1, err := e.loadMem(ea+4, 4)
		if err != nil {
			return err
		}
		e.lemitF(op.d0, v0, due)
		e.lemitF(op.d1, v1, due)
	}
	e.recordMem(op, ea)
	return nil
}

// execLoweredStore executes one lowered store: effective address,
// alignment check, then buffered micro-stores routed either to the
// pending-store arena or, for split stores, to the memory renaming
// register. On any error nothing has been emitted.
func (e *Engine) execLoweredStore(op *lop, due int) error {
	ea, err := e.effAddr(op)
	if err != nil {
		return err
	}
	var sts [maxMicroStores]microStore
	nst := uint8(1)
	switch op.op {
	case isa.OpST:
		sts[0] = microStore{addr: ea, val: e.lrdReg(op.c), size: 4}
	case isa.OpSTB:
		sts[0] = microStore{addr: ea, val: e.lrdReg(op.c), size: 1}
	case isa.OpSTH:
		sts[0] = microStore{addr: ea, val: e.lrdReg(op.c), size: 2}
	case isa.OpSTD:
		sts[0] = microStore{addr: ea, val: e.lrdReg(op.c), size: 4}
		sts[1] = microStore{addr: ea + 4, val: e.lrdReg(op.e0), size: 4}
		nst = 2
	case isa.OpSTF:
		sts[0] = microStore{addr: ea, val: e.lrdF(op.c), size: 4}
	case isa.OpSTDF:
		sts[0] = microStore{addr: ea, val: e.lrdF(op.c), size: 4}
		sts[1] = microStore{addr: ea + 4, val: e.lrdF(op.e0), size: 4}
		nst = 2
	}

	if op.memRenamed {
		// Split store: the buffered write moves to the memory renaming
		// register; the access is charged when its memory copy commits.
		rv := renVal{st: sts, nst: nst, memEA: ea}
		for _, f := range e.lb.rens[op.mem0:op.mem1] {
			e.pend = append(e.pend, pendWrite{due: int32(due), kind: isa.LocRen,
				full: true, flat: f, v: rv})
		}
		return nil
	}
	e.scPend = append(e.scPend, sts[:nst]...)
	e.recordMem(op, ea)
	return nil
}

package arch

import (
	"fmt"
	"math"

	"dtsvliw/internal/isa"
)

// exec executes one instruction located at addr against s and returns
// its outcome. It is the reference semantics of every instruction: the
// VLIW Engine's lowered executor (internal/vliw) makes the same reads
// and writes, in the same order.
func (s *State) exec(in *isa.Inst, addr uint32) (isa.Outcome, error) {
	out := isa.Outcome{NextPC: addr + 4}
	nwin := s.NWin
	cwp := s.CWP()
	rr := func(r uint8) uint32 { return s.ReadReg(isa.PhysReg(cwp, r, nwin)) }
	wr := func(r uint8, v uint32) { s.WriteReg(isa.PhysReg(cwp, r, nwin), v) }
	op2 := func() uint32 {
		if in.UseImm {
			return uint32(in.Imm)
		}
		return rr(in.Rs2)
	}

	switch in.Op {
	case isa.OpSETHI:
		wr(in.Rd, uint32(in.Imm)<<10)

	case isa.OpADD, isa.OpADDCC:
		a, b := rr(in.Rs1), op2()
		r := a + b
		wr(in.Rd, r)
		if in.Op == isa.OpADDCC {
			s.SetICC(isa.AddICC(a, b, r, r < a))
		}

	case isa.OpADDX, isa.OpADDXCC:
		a, b := rr(in.Rs1), op2()
		var c uint32
		if s.ICC()&isa.ICCC != 0 {
			c = 1
		}
		r := a + b + c
		wr(in.Rd, r)
		if in.Op == isa.OpADDXCC {
			carry := uint64(a)+uint64(b)+uint64(c) > 0xFFFFFFFF
			s.SetICC(isa.AddICC(a, b, r, carry))
		}

	case isa.OpSUB, isa.OpSUBCC:
		a, b := rr(in.Rs1), op2()
		r := a - b
		wr(in.Rd, r)
		if in.Op == isa.OpSUBCC {
			s.SetICC(isa.SubICC(a, b, r, a < b))
		}

	case isa.OpSUBX, isa.OpSUBXCC:
		a, b := rr(in.Rs1), op2()
		var c uint32
		if s.ICC()&isa.ICCC != 0 {
			c = 1
		}
		r := a - b - c
		wr(in.Rd, r)
		if in.Op == isa.OpSUBXCC {
			borrow := uint64(a) < uint64(b)+uint64(c)
			s.SetICC(isa.SubICC(a, b, r, borrow))
		}

	case isa.OpAND, isa.OpANDCC:
		r := rr(in.Rs1) & op2()
		wr(in.Rd, r)
		if in.Op == isa.OpANDCC {
			s.SetICC(isa.LogicICC(r))
		}
	case isa.OpANDN, isa.OpANDNCC:
		r := rr(in.Rs1) &^ op2()
		wr(in.Rd, r)
		if in.Op == isa.OpANDNCC {
			s.SetICC(isa.LogicICC(r))
		}
	case isa.OpOR, isa.OpORCC:
		r := rr(in.Rs1) | op2()
		wr(in.Rd, r)
		if in.Op == isa.OpORCC {
			s.SetICC(isa.LogicICC(r))
		}
	case isa.OpORN, isa.OpORNCC:
		r := rr(in.Rs1) | ^op2()
		wr(in.Rd, r)
		if in.Op == isa.OpORNCC {
			s.SetICC(isa.LogicICC(r))
		}
	case isa.OpXOR, isa.OpXORCC:
		r := rr(in.Rs1) ^ op2()
		wr(in.Rd, r)
		if in.Op == isa.OpXORCC {
			s.SetICC(isa.LogicICC(r))
		}
	case isa.OpXNOR, isa.OpXNORCC:
		r := rr(in.Rs1) ^ ^op2()
		wr(in.Rd, r)
		if in.Op == isa.OpXNORCC {
			s.SetICC(isa.LogicICC(r))
		}

	case isa.OpSLL:
		wr(in.Rd, rr(in.Rs1)<<(op2()&31))
	case isa.OpSRL:
		wr(in.Rd, rr(in.Rs1)>>(op2()&31))
	case isa.OpSRA:
		wr(in.Rd, uint32(int32(rr(in.Rs1))>>(op2()&31)))

	case isa.OpMULSCC:
		// SPARC multiply step (the V7 substitute for integer multiply).
		a := rr(in.Rs1)
		icc := s.ICC()
		nxv := (icc&isa.ICCN != 0) != (icc&isa.ICCV != 0)
		o1 := a >> 1
		if nxv {
			o1 |= 0x80000000
		}
		var o2 uint32
		if s.Y()&1 != 0 {
			o2 = op2()
		}
		r := o1 + o2
		s.SetY(s.Y()>>1 | a<<31)
		wr(in.Rd, r)
		s.SetICC(isa.AddICC(o1, o2, r, r < o1))

	case isa.OpRDY:
		wr(in.Rd, s.Y())
	case isa.OpWRY:
		s.SetY(rr(in.Rs1) ^ op2()) // SPARC WRY xors rs1 with operand 2

	case isa.OpSAVE:
		v := rr(in.Rs1) + op2()
		ncwp := isa.SaveCWP(cwp, nwin)
		s.SetCWP(ncwp)
		if p := isa.PhysReg(ncwp, in.Rd, nwin); p != 0 {
			s.WriteReg(p, v)
		}

	case isa.OpRESTORE:
		v := rr(in.Rs1) + op2()
		ncwp := isa.RestoreCWP(cwp, nwin)
		s.SetCWP(ncwp)
		if p := isa.PhysReg(ncwp, in.Rd, nwin); p != 0 {
			s.WriteReg(p, v)
		}

	case isa.OpCALL:
		wr(15, addr)
		out.IsCTI = true
		out.Taken = true
		out.Target = in.BranchTarget(addr)
		out.NextPC = out.Target

	case isa.OpJMPL:
		t := rr(in.Rs1) + op2()
		if t&3 != 0 {
			return out, &isa.AlignmentError{Addr: t, Size: 4}
		}
		wr(in.Rd, addr)
		out.IsCTI = true
		out.Taken = true
		out.Target = t
		out.NextPC = t

	case isa.OpBICC:
		out.IsCTI = in.Cond != isa.CondN
		out.Target = in.BranchTarget(addr)
		if isa.EvalICC(in.Cond, s.ICC()) {
			out.Taken = true
			out.NextPC = out.Target
		}

	case isa.OpFBFCC:
		out.IsCTI = in.Cond != isa.CondN
		out.Target = in.BranchTarget(addr)
		if isa.EvalFCC(in.Cond, s.FCC()) {
			out.Taken = true
			out.NextPC = out.Target
		}

	case isa.OpTICC:
		if isa.EvalICC(in.Cond, s.ICC()) {
			out.Trap = true
			out.TrapNum = uint8((rr(in.Rs1) + op2()) & 0x7F)
		}

	case isa.OpLD, isa.OpLDUB, isa.OpLDSB, isa.OpLDUH, isa.OpLDSH, isa.OpLDD,
		isa.OpST, isa.OpSTB, isa.OpSTH, isa.OpSTD, isa.OpLDSTUB, isa.OpSWAP,
		isa.OpLDF, isa.OpLDDF, isa.OpSTF, isa.OpSTDF:
		return s.execMem(in, out)

	case isa.OpFMOVS:
		s.WriteF(in.Rd, s.ReadF(in.Rs2))
	case isa.OpFNEGS:
		s.WriteF(in.Rd, s.ReadF(in.Rs2)^0x80000000)
	case isa.OpFABSS:
		s.WriteF(in.Rd, s.ReadF(in.Rs2)&^0x80000000)

	case isa.OpFITOS:
		s.WriteF(in.Rd, math.Float32bits(float32(int32(s.ReadF(in.Rs2)))))
	case isa.OpFSTOI:
		f := math.Float32frombits(s.ReadF(in.Rs2))
		s.WriteF(in.Rd, uint32(int32(f)))
	case isa.OpFITOD:
		s.writeD(in.Rd, float64(int32(s.ReadF(in.Rs2))))
	case isa.OpFDTOI:
		s.WriteF(in.Rd, uint32(int32(s.readD(in.Rs2))))
	case isa.OpFSTOD:
		s.writeD(in.Rd, float64(math.Float32frombits(s.ReadF(in.Rs2))))
	case isa.OpFDTOS:
		s.WriteF(in.Rd, math.Float32bits(float32(s.readD(in.Rs2))))

	case isa.OpFADDS, isa.OpFSUBS, isa.OpFMULS, isa.OpFDIVS:
		a := math.Float32frombits(s.ReadF(in.Rs1))
		b := math.Float32frombits(s.ReadF(in.Rs2))
		var r float32
		switch in.Op {
		case isa.OpFADDS:
			r = a + b
		case isa.OpFSUBS:
			r = a - b
		case isa.OpFMULS:
			r = a * b
		default:
			r = a / b
		}
		s.WriteF(in.Rd, math.Float32bits(r))

	case isa.OpFADDD, isa.OpFSUBD, isa.OpFMULD, isa.OpFDIVD:
		a, b := s.readD(in.Rs1), s.readD(in.Rs2)
		var r float64
		switch in.Op {
		case isa.OpFADDD:
			r = a + b
		case isa.OpFSUBD:
			r = a - b
		case isa.OpFMULD:
			r = a * b
		default:
			r = a / b
		}
		s.writeD(in.Rd, r)

	case isa.OpFCMPS:
		a := math.Float32frombits(s.ReadF(in.Rs1))
		b := math.Float32frombits(s.ReadF(in.Rs2))
		s.SetFCC(isa.CmpFCC(float64(a), float64(b)))
	case isa.OpFCMPD:
		s.SetFCC(isa.CmpFCC(s.readD(in.Rs1), s.readD(in.Rs2)))

	case isa.OpUNIMP:
		return out, fmt.Errorf("isa: unimplemented instruction at %#08x", addr)

	default:
		return out, fmt.Errorf("isa: cannot execute %v at %#08x", in.Op, addr)
	}
	return out, nil
}

// readD reads a double from the even/odd FP register pair (even register
// holds the most-significant word, big-endian SPARC convention).
func (s *State) readD(r uint8) float64 {
	hi := uint64(s.ReadF(r &^ 1))
	lo := uint64(s.ReadF(r | 1))
	return math.Float64frombits(hi<<32 | lo)
}

func (s *State) writeD(r uint8, v float64) {
	bits := math.Float64bits(v)
	s.WriteF(r&^1, uint32(bits>>32))
	s.WriteF(r|1, uint32(bits))
}

func (s *State) execMem(in *isa.Inst, out isa.Outcome) (isa.Outcome, error) {
	nwin := s.NWin
	cwp := s.CWP()
	rr := func(r uint8) uint32 { return s.ReadReg(isa.PhysReg(cwp, r, nwin)) }
	wr := func(r uint8, v uint32) { s.WriteReg(isa.PhysReg(cwp, r, nwin), v) }
	ea := rr(in.Rs1)
	if in.UseImm {
		ea += uint32(in.Imm)
	} else {
		ea += rr(in.Rs2)
	}
	out.EA = ea
	out.HasEA = true

	size := in.MemSize()
	var alignment uint32
	switch size {
	case 2:
		alignment = 1
	case 4:
		alignment = 3
	case 8:
		alignment = 7
	}
	if ea&alignment != 0 {
		return out, &isa.AlignmentError{Addr: ea, Size: size}
	}

	switch in.Op {
	case isa.OpLD:
		v, err := s.Load(ea, 4)
		if err != nil {
			return out, err
		}
		wr(in.Rd, v)
	case isa.OpLDUB:
		v, err := s.Load(ea, 1)
		if err != nil {
			return out, err
		}
		wr(in.Rd, v)
	case isa.OpLDSB:
		v, err := s.Load(ea, 1)
		if err != nil {
			return out, err
		}
		wr(in.Rd, uint32(int32(int8(v))))
	case isa.OpLDUH:
		v, err := s.Load(ea, 2)
		if err != nil {
			return out, err
		}
		wr(in.Rd, v)
	case isa.OpLDSH:
		v, err := s.Load(ea, 2)
		if err != nil {
			return out, err
		}
		wr(in.Rd, uint32(int32(int16(v))))
	case isa.OpLDD:
		v0, err := s.Load(ea, 4)
		if err != nil {
			return out, err
		}
		v1, err := s.Load(ea+4, 4)
		if err != nil {
			return out, err
		}
		wr(in.Rd&^1, v0)
		wr(in.Rd|1, v1)
	case isa.OpST:
		if err := s.Store(ea, rr(in.Rd), 4); err != nil {
			return out, err
		}
	case isa.OpSTB:
		if err := s.Store(ea, rr(in.Rd), 1); err != nil {
			return out, err
		}
	case isa.OpSTH:
		if err := s.Store(ea, rr(in.Rd), 2); err != nil {
			return out, err
		}
	case isa.OpSTD:
		if err := s.Store(ea, rr(in.Rd&^1), 4); err != nil {
			return out, err
		}
		if err := s.Store(ea+4, rr(in.Rd|1), 4); err != nil {
			return out, err
		}
	case isa.OpLDSTUB:
		v, err := s.Load(ea, 1)
		if err != nil {
			return out, err
		}
		if err := s.Store(ea, 0xFF, 1); err != nil {
			return out, err
		}
		wr(in.Rd, v)
	case isa.OpSWAP:
		v, err := s.Load(ea, 4)
		if err != nil {
			return out, err
		}
		if err := s.Store(ea, rr(in.Rd), 4); err != nil {
			return out, err
		}
		wr(in.Rd, v)
	case isa.OpLDF:
		v, err := s.Load(ea, 4)
		if err != nil {
			return out, err
		}
		s.WriteF(in.Rd, v)
	case isa.OpLDDF:
		v0, err := s.Load(ea, 4)
		if err != nil {
			return out, err
		}
		v1, err := s.Load(ea+4, 4)
		if err != nil {
			return out, err
		}
		s.WriteF(in.Rd&^1, v0)
		s.WriteF(in.Rd|1, v1)
	case isa.OpSTF:
		if err := s.Store(ea, s.ReadF(in.Rd), 4); err != nil {
			return out, err
		}
	case isa.OpSTDF:
		if err := s.Store(ea, s.ReadF(in.Rd&^1), 4); err != nil {
			return out, err
		}
		if err := s.Store(ea+4, s.ReadF(in.Rd|1), 4); err != nil {
			return out, err
		}
	}
	return out, nil
}

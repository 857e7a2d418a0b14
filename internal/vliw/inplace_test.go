package vliw

import (
	"errors"
	"testing"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/isa"
	"dtsvliw/internal/mem"
	"dtsvliw/internal/sched"
)

// TestInPlaceRollback: a long instruction writes in place an integer
// register in the last word of the NWin-32 write set, an FP pair, ICC,
// FCC, Y and (through SAVE) CWP and a register of the new window; the
// next long instruction faults on an unmapped load. The rollback must
// restore every register file and singleton to its state at block entry,
// from a checkpoint that holds only the block's write set.
func TestInPlaceRollback(t *testing.T) {
	const nwin = 32
	m := mem.NewMemory()
	m.Map(0x40000, 0x1000)
	st := arch.NewState(nwin, m)
	for i := range st.Regs {
		st.Regs[i] = uint32(i)*7 + 1
	}
	st.Regs[0] = 0
	for i := range st.F {
		st.F[i] = uint32(i)*13 + 5
	}
	st.SetCWP(31)
	st.SetICC(isa.ICCZ)
	st.SetFCC(2)
	st.SetY(0x1234)
	st.SetReg(5, 0xDEAD0000) // the faulting load's address

	at := func(in isa.Inst, seq uint64) *sched.Slot {
		s := slot(in, 0x1000+4*uint32(seq), seq)
		s.CWP = 31
		return s
	}
	top := at(isa.Inst{Op: isa.OpOR, Rd: 23, Rs1: 0, UseImm: true, Imm: 77}, 0) // %l7 of window 31
	if p := isa.PhysReg(31, 23, nwin); p < 512 {
		t.Fatalf("%%l7 of window 31 is physical %d, not in the write set's last word", p)
	}
	pair := at(isa.Inst{Op: isa.OpFITOD, Rd: 4, Rs2: 1}, 1)
	cc := at(isa.Inst{Op: isa.OpSUBCC, Rd: 1, Rs1: 2, Rs2: 3}, 2)
	wry := at(isa.Inst{Op: isa.OpWRY, Rs1: 4, UseImm: true, Imm: 3}, 3)
	fcmp := at(isa.Inst{Op: isa.OpFCMPS, Rs1: 8, Rs2: 9}, 4)
	save := at(isa.Inst{Op: isa.OpSAVE, Rd: 17, Rs1: 6, UseImm: true, Imm: -96}, 5)
	bad := at(isa.Inst{Op: isa.OpLD, Rd: 7, Rs1: 5, UseImm: true}, 6)
	bad.CWP = 30
	bad.IsMem, bad.MemSize = true, 4
	b := block(0x1000, []*sched.Slot{top, pair, cc, wry, fcmp, save}, []*sched.Slot{bad})

	want := *st
	want.Regs = append([]uint32(nil), st.Regs...)
	e := New(st)
	begin(t, e, b)
	for i, op := range e.lb.ops[:6] {
		if op.stage {
			t.Fatalf("slot %d of the first long instruction is staged; the test needs in-place writes", i)
		}
	}
	if res := e.ExecLI(0); res.Err != nil {
		t.Fatal(res.Err)
	}
	if st.Regs[isa.PhysReg(31, 23, nwin)] != 77 || st.CWP() != 30 || st.Y() == want.Y() {
		t.Fatal("the first long instruction did not write its registers")
	}
	res := e.ExecLI(1)
	var fe *mem.FaultError
	if !errors.As(res.Err, &fe) {
		t.Fatalf("unmapped load: %+v, want a memory fault", res)
	}
	for i := range want.Regs {
		if st.Regs[i] != want.Regs[i] {
			t.Errorf("physical register %d = %#x after rollback, want %#x", i, st.Regs[i], want.Regs[i])
		}
	}
	if st.F != want.F {
		t.Errorf("F = %v after rollback, want %v", st.F, want.F)
	}
	if st.ICC() != want.ICC() || st.FCC() != want.FCC() || st.Y() != want.Y() || st.CWP() != want.CWP() {
		t.Errorf("icc/fcc/y/cwp = %d/%d/%#x/%d after rollback, want %d/%d/%#x/%d",
			st.ICC(), st.FCC(), st.Y(), st.CWP(), want.ICC(), want.FCC(), want.Y(), want.CWP())
	}
}

// TestCheckLoweredWriteSet: a cached lowering whose write set lost or
// gained a register, or whose staging flag flipped, no longer equals a
// fresh lowering, and CheckLowered says so.
func TestCheckLoweredWriteSet(t *testing.T) {
	b := richBlock()
	for name, tamper := range map[string]func(*LoweredBlock){
		"integer register": func(lb *LoweredBlock) { lb.iregs[iregWords-1] ^= 1 << 7 },
		"fp register":      func(lb *LoweredBlock) { lb.fregs ^= 1 << 4 },
		"staging flag":     func(lb *LoweredBlock) { lb.ops[0].stage = !lb.ops[0].stage },
	} {
		lb := Lower(b, 8)
		if err := CheckLowered(b, lb, 8); err != nil {
			t.Fatalf("%s: untampered lowering fails: %v", name, err)
		}
		tamper(lb)
		var me *LowerMismatchError
		if err := CheckLowered(b, lb, 8); !errors.As(err, &me) {
			t.Errorf("%s: CheckLowered = %v, want a *LowerMismatchError", name, err)
		}
	}
}

// TestStagingTableOverflow: when the analysis's fixed tables fill, it
// stages instead of guessing. Past len(liw) writes in one long
// instruction every slot of it is staged; past len(land) multicycle
// writes in flight every slot up to the last dropped landing line is.
func TestStagingTableOverflow(t *testing.T) {
	var lo lowerer
	renamed := func(n int, lat int32) []*sched.Slot {
		var row []*sched.Slot
		for i := range n {
			s := slot(isa.Inst{Op: isa.OpOR, Rd: 1, Rs1: 0, UseImm: true, Imm: 1}, 0x1000, uint64(i))
			s.Renames = []sched.RenamePair{{Loc: isa.IReg(1), Reg: sched.RenameReg{Class: sched.RenInt, Idx: uint16(i)}}}
			s.Lat = lat
			row = append(row, s)
		}
		return row
	}
	one := func() []*sched.Slot { return []*sched.Slot{slot(isa.Inst{Op: isa.OpOR, Rd: 2, Rs1: 0}, 0x1000, 0)} }
	lower := func(lis ...[]*sched.Slot) *LoweredBlock {
		b := block(0x1000, lis...)
		b.Renames[sched.RenInt] = 128
		lb := Lower(b, 8)
		if lb == nil {
			t.Fatal("block did not lower")
		}
		return lb
	}
	for _, n := range []int{len(lo.liw), len(lo.liw) + 1} {
		lb := lower(renamed(n, 1))
		for i, op := range lb.ops {
			if op.stage != (n > len(lo.liw)) {
				t.Fatalf("%d writes in one long instruction: op %d staged %v", n, i, op.stage)
			}
		}
	}
	lb := lower(renamed(len(lo.land)+1, 3), one(), one(), one())
	for li, want := range []bool{true, true, true, false} {
		if got := lb.ops[lb.lines[li].op0].stage; got != want {
			t.Errorf("land overflowed with lines due at 2: line %d staged %v, want %v", li, got, want)
		}
	}
}

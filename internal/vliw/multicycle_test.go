package vliw

import (
	"testing"

	"dtsvliw/internal/isa"
	"dtsvliw/internal/sched"
)

// latSlot builds a slot with an explicit latency.
func latSlot(in isa.Inst, addr uint32, seq uint64, lat int) *sched.Slot {
	s := slot(in, addr, seq)
	s.Lat = int32(lat)
	return s
}

// TestDelayedCommit: a 3-cycle producer's write is invisible until its due
// long instruction.
func TestDelayedCommit(t *testing.T) {
	st := newState()
	st.SetReg(1, 41)
	e := New(st)
	prod := latSlot(isa.Inst{Op: isa.OpADD, Rd: 2, Rs1: 1, UseImm: true, Imm: 1}, 0x1000, 0, 3)
	nop1 := slot(isa.Inst{Op: isa.OpOR, Rd: 5, Rs1: 0, UseImm: true, Imm: 1}, 0x1004, 1)
	nop2 := slot(isa.Inst{Op: isa.OpOR, Rd: 6, Rs1: 0, UseImm: true, Imm: 2}, 0x1008, 2)
	b := block(0x1000, []*sched.Slot{prod}, []*sched.Slot{nop1}, []*sched.Slot{nop2})
	begin(t, e, b)
	e.ExecLI(0)
	if st.ReadReg(2) != 0 {
		t.Fatal("3-cycle result visible after LI 0")
	}
	e.ExecLI(1)
	if st.ReadReg(2) != 0 {
		t.Fatal("3-cycle result visible after LI 1")
	}
	e.ExecLI(2) // due = 0+3-1 = 2: commits at the end of LI 2
	if st.ReadReg(2) != 42 {
		t.Fatalf("result not committed at due LI: %d", st.ReadReg(2))
	}
}

// TestFlushPendingStall: leaving the block before the latency lands
// charges the remaining cycles and commits the value.
func TestFlushPendingStall(t *testing.T) {
	st := newState()
	st.SetReg(1, 10)
	e := New(st)
	prod := latSlot(isa.Inst{Op: isa.OpADD, Rd: 2, Rs1: 1, UseImm: true, Imm: 1}, 0x1000, 0, 4)
	b := block(0x1000, []*sched.Slot{prod})
	begin(t, e, b)
	e.ExecLI(0)
	if st.ReadReg(2) != 0 {
		t.Fatal("committed early")
	}
	stall := e.FlushPending(0)
	if stall != 3 { // due LI 3, last executed LI 0
		t.Fatalf("stall = %d, want 3", stall)
	}
	if st.ReadReg(2) != 11 {
		t.Fatalf("value lost at flush: %d", st.ReadReg(2))
	}
	if again := e.FlushPending(0); again != 0 {
		t.Fatalf("second flush stalled %d", again)
	}
}

// TestCopyBypassesLatencyShadow: a copy scheduled inside its producer's
// latency shadow reads the forwarding bypass, not the stale rename file.
func TestCopyBypassesLatencyShadow(t *testing.T) {
	st := newState()
	st.SetReg(1, 7)
	e := New(st)
	ren := sched.RenameReg{Class: sched.RenInt, Idx: 0}
	prod := latSlot(isa.Inst{Op: isa.OpADD, Rd: 2, Rs1: 1, UseImm: true, Imm: 1}, 0x1000, 0, 3)
	prod.Renames = []sched.RenamePair{{Loc: isa.IReg(2), Reg: ren}}
	cp := &sched.Slot{IsCopy: true, Addr: 0x1000, Seq: 0,
		Copies: []sched.RenamePair{{Loc: isa.IReg(2), Reg: ren}}}
	// The copy executes one LI after the producer — inside the 3-cycle
	// shadow.
	begin(t, e, block(0x1000, []*sched.Slot{prod}, []*sched.Slot{cp}))
	e.ExecLI(0)
	if res := e.ExecLI(1); res.Err != nil {
		t.Fatal(res.Err)
	}
	e.FlushPending(1)
	if st.ReadReg(2) != 8 {
		t.Fatalf("copy read stale rename value: %d", st.ReadReg(2))
	}
}

// TestCopyBypassSkipsOwnLongInstruction: the copy bypass sees only the
// writes earlier long instructions queued. A producer staged because a
// later slot of its own long instruction copies its renaming register
// must stay invisible to that copy, which reads the state from before
// the long instruction: the stale register reads as zero.
func TestCopyBypassSkipsOwnLongInstruction(t *testing.T) {
	st := newState()
	st.SetReg(1, 7)
	st.SetReg(2, 99)
	e := New(st)
	ren := sched.RenameReg{Class: sched.RenInt, Idx: 0}
	prod := slot(isa.Inst{Op: isa.OpADD, Rd: 2, Rs1: 1, UseImm: true, Imm: 1}, 0x1000, 0)
	prod.Renames = []sched.RenamePair{{Loc: isa.IReg(2), Reg: ren}}
	cp := &sched.Slot{IsCopy: true, Addr: 0x1000, Seq: 0,
		Copies: []sched.RenamePair{{Loc: isa.IReg(2), Reg: ren}}}
	begin(t, e, block(0x1000, []*sched.Slot{prod, cp}))
	if !StagedOps(e.lb)[0] {
		t.Fatal("the producer is not staged, so this test checks nothing")
	}
	if res := e.ExecLI(0); res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := st.ReadReg(2); got != 0 {
		t.Fatalf("copy read its own long instruction's queued write: g2 = %d, want 0", got)
	}
}

// TestTieCommitYoungerWins: when an older producer's delayed writeback
// comes due in the same long instruction in which a younger instruction
// writes the same register, the younger (program-order-later) value must
// survive. Regression: pending writes used to be applied after the
// current long instruction's writes, letting the stale producer clobber
// the younger result.
func TestTieCommitYoungerWins(t *testing.T) {
	st := newState()
	st.SetReg(1, 41)
	e := New(st)
	// Older: 2-cycle producer of r2 in LI 0 (due = end of LI 1).
	old := latSlot(isa.Inst{Op: isa.OpADD, Rd: 2, Rs1: 1, UseImm: true, Imm: 1}, 0x1000, 0, 2)
	// Younger: single-cycle writer of r2 in LI 1 (commits at end of LI 1).
	young := slot(isa.Inst{Op: isa.OpOR, Rd: 2, Rs1: 0, UseImm: true, Imm: 7}, 0x1004, 1)
	begin(t, e, block(0x1000, []*sched.Slot{old}, []*sched.Slot{young}))
	e.ExecLI(0)
	if st.ReadReg(2) != 0 {
		t.Fatal("2-cycle result visible after LI 0")
	}
	e.ExecLI(1)
	if got := st.ReadReg(2); got != 7 {
		t.Fatalf("r2 = %d after the tie commit, want the younger value 7", got)
	}
}

// TestRecoveryDiscardsPending: an exception throws away in-flight delayed
// writes, so a flush after the rollback neither stalls nor commits.
func TestRecoveryDiscardsPending(t *testing.T) {
	st := newState()
	st.SetReg(1, 10)
	st.SetReg(3, 0xDEAD0000)
	e := New(st)
	prod := latSlot(isa.Inst{Op: isa.OpADD, Rd: 2, Rs1: 1, UseImm: true, Imm: 5}, 0x1000, 0, 4)
	bad := slot(isa.Inst{Op: isa.OpLD, Rd: 4, Rs1: 3, UseImm: true}, 0x1004, 1)
	bad.IsMem, bad.MemSize = true, 4
	begin(t, e, block(0x1000, []*sched.Slot{prod}, []*sched.Slot{bad}))
	e.ExecLI(0)
	res := e.ExecLI(1)
	if res.Err == nil {
		t.Fatal("load should fault")
	}
	if st.ReadReg(2) != 0 {
		t.Fatal("pending write survived rollback")
	}
	if stall := e.FlushPending(1); stall != 0 {
		t.Fatalf("flush after rollback stalled %d cycles for a discarded write", stall)
	}
	if st.ReadReg(2) != 0 {
		t.Fatal("flush after rollback committed a discarded value")
	}
}

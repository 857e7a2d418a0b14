package vliw

import (
	"errors"
	"strings"
	"testing"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/isa"
	"dtsvliw/internal/mem"
	"dtsvliw/internal/sched"
)

// newState builds a bare machine state with a mapped data page.
func newState() *arch.State {
	m := mem.NewMemory()
	m.Map(0x40000, 0x1000)
	return arch.NewState(8, m)
}

// slot builds a plain slot for one instruction.
func slot(in isa.Inst, addr uint32, seq uint64) *sched.Slot {
	return &sched.Slot{Inst: in, Addr: addr, Seq: seq}
}

// block wraps long instructions into a block.
func block(tag uint32, lis ...[]*sched.Slot) *sched.Block {
	b := &sched.Block{Tag: tag, LIs: lis, NumLIs: len(lis), FirstSeq: 0}
	b.NBA = sched.LongAddr{Addr: tag + uint32(4*len(lis)), Line: len(lis) - 1}
	for c := range b.Renames {
		b.Renames[c] = 8 // generous rename files for hand-built blocks
	}
	return b
}

// begin lowers b and starts executing it on e, the way the machine
// enters a VLIW Cache line. A block that does not lower fails the test.
func begin(t *testing.T, e *Engine, b *sched.Block) {
	t.Helper()
	lb := Lower(b, e.nwin)
	if lb == nil {
		t.Fatalf("block %#08x did not lower", b.Tag)
	}
	e.BeginLowered(lb)
}

// TestPlainExecution: independent ALU ops in one long instruction commit
// together.
func TestPlainExecution(t *testing.T) {
	st := newState()
	st.SetReg(1, 5)
	st.SetReg(2, 7)
	e := New(st)
	li := []*sched.Slot{
		slot(isa.Inst{Op: isa.OpADD, Rd: 3, Rs1: 1, Rs2: 2}, 0x1000, 0), // g3 = g1+g2
		slot(isa.Inst{Op: isa.OpSUB, Rd: 4, Rs1: 2, Rs2: 1}, 0x1004, 1), // g4 = g2-g1
	}
	begin(t, e, block(0x1000, li))
	res := e.ExecLI(0)
	if res.Err != nil || res.TraceExit {
		t.Fatalf("unexpected result %+v", res)
	}
	if st.ReadReg(3) != 12 || st.ReadReg(4) != 2 {
		t.Fatalf("g3=%d g4=%d", st.ReadReg(3), st.ReadReg(4))
	}
	if e.Stats.OpsCommitted != 2 {
		t.Fatalf("committed %d", e.Stats.OpsCommitted)
	}
}

// TestReadBeforeWrite: within one long instruction all reads see the
// pre-LI state (legal anti-dependency cohabitation), whichever slot comes
// first. A writer ahead of its reader in slot order is the case that
// stages the write to the end of the long instruction.
func TestReadBeforeWrite(t *testing.T) {
	reader := slot(isa.Inst{Op: isa.OpADD, Rd: 2, Rs1: 1, UseImm: true, Imm: 1}, 0x1000, 0) // reads g1
	writer := slot(isa.Inst{Op: isa.OpOR, Rd: 1, Rs1: 0, UseImm: true, Imm: 9}, 0x1004, 1)  // writes g1
	for _, tc := range []struct {
		name      string
		li        []*sched.Slot
		wantStage []bool
	}{
		{"reader first", []*sched.Slot{reader, writer}, []bool{false, false}},
		{"writer first", []*sched.Slot{writer, reader}, []bool{true, false}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newState()
			st.SetReg(1, 100)
			e := New(st)
			begin(t, e, block(0x1000, tc.li))
			for i, op := range e.lb.ops {
				if op.stage != tc.wantStage[i] {
					t.Errorf("slot %d staged %v, want %v", i, op.stage, tc.wantStage[i])
				}
			}
			e.ExecLI(0)
			if st.ReadReg(2) != 101 {
				t.Fatalf("reader saw the same-LI write: g2=%d", st.ReadReg(2))
			}
			if st.ReadReg(1) != 9 {
				t.Fatalf("writer lost: g1=%d", st.ReadReg(1))
			}
		})
	}
}

// TestTagAnnulment: a deviating conditional branch annuls same-LI slots
// with higher tags and redirects.
func TestTagAnnulment(t *testing.T) {
	st := newState() // icc = 0 -> "be" is not taken
	e := New(st)
	br := slot(isa.Inst{Op: isa.OpBICC, Cond: isa.CondE, Imm: 4}, 0x1000, 0)
	br.BrTaken = true // recorded taken, will deviate
	br.BrTarget = 0x1010
	gated := slot(isa.Inst{Op: isa.OpOR, Rd: 5, Rs1: 0, UseImm: true, Imm: 1}, 0x1010, 1)
	gated.Tag = 1
	begin(t, e, block(0x1000, []*sched.Slot{br, gated}))
	res := e.ExecLI(0)
	if !res.TraceExit {
		t.Fatal("expected trace exit")
	}
	if res.NextPC != 0x1004 {
		t.Fatalf("redirect to %#x, want fall-through 0x1004", res.NextPC)
	}
	if res.ExitAdvance != 1 {
		t.Fatalf("exit advance %d", res.ExitAdvance)
	}
	if st.ReadReg(5) != 0 {
		t.Fatal("annulled slot committed")
	}
	if e.Stats.OpsAnnulled != 1 {
		t.Fatalf("annulled count %d", e.Stats.OpsAnnulled)
	}
}

// TestBranchFollowsTrace: a branch matching its record does not exit.
func TestBranchFollowsTrace(t *testing.T) {
	st := newState()
	st.SetICC(isa.ICCZ) // equal -> "be" taken
	e := New(st)
	br := slot(isa.Inst{Op: isa.OpBICC, Cond: isa.CondE, Imm: 4}, 0x1000, 0)
	br.BrTaken = true
	br.BrTarget = 0x1010
	begin(t, e, block(0x1000, []*sched.Slot{br}))
	if res := e.ExecLI(0); res.TraceExit {
		t.Fatal("trace exit on matching branch")
	}
}

// TestSplitAndCopy: a producer writes the renaming register; its copy in a
// later long instruction commits the architectural value.
func TestSplitAndCopy(t *testing.T) {
	st := newState()
	st.SetReg(1, 41)
	e := New(st)
	ren := sched.RenameReg{Class: sched.RenInt, Idx: 0}
	prod := slot(isa.Inst{Op: isa.OpADD, Rd: 2, Rs1: 1, UseImm: true, Imm: 1}, 0x1000, 0)
	prod.Renames = []sched.RenamePair{{Loc: isa.IReg(2), Reg: ren}}
	cp := &sched.Slot{IsCopy: true, Addr: 0x1000, Seq: 0,
		Copies: []sched.RenamePair{{Loc: isa.IReg(2), Reg: ren}}}
	begin(t, e, block(0x1000, []*sched.Slot{prod}, []*sched.Slot{cp}))
	e.ExecLI(0)
	if st.ReadReg(2) != 0 {
		t.Fatal("producer wrote architecturally before the copy")
	}
	res := e.ExecLI(1)
	if res.Err != nil {
		t.Fatalf("copy failed: %v", res.Err)
	}
	if st.ReadReg(2) != 42 {
		t.Fatalf("copy committed %d", st.ReadReg(2))
	}
}

// TestRenameEpochWrap: when the block epoch wraps, every stamp is
// cleared, so a renaming register written 2^31 blocks earlier, whose
// stamp equals the restarted epoch, reads as empty rather than stale.
func TestRenameEpochWrap(t *testing.T) {
	st := newState()
	st.SetReg(1, 41)
	e := New(st)
	ren := sched.RenameReg{Class: sched.RenInt, Idx: 0}
	prod := slot(isa.Inst{Op: isa.OpADD, Rd: 2, Rs1: 1, UseImm: true, Imm: 1}, 0x1000, 0)
	prod.Renames = []sched.RenamePair{{Loc: isa.IReg(2), Reg: ren}}
	b := block(0x1000, []*sched.Slot{prod})
	begin(t, e, b)
	e.ExecLI(0)
	flat := int32(0) // RenInt is the first class in the flat file
	if got := e.renValue(flat); got != 42 {
		t.Fatalf("renaming register holds %d before the wrap, want 42", got)
	}
	e.epoch = ^uint32(0) - 1 // the next BeginLowered wraps to the same epoch
	begin(t, e, b)
	if got := e.renValue(flat); got != 0 {
		t.Fatalf("stale renaming register reads %d after the epoch wrap, want 0", got)
	}
}

// TestSourceForwarding: a consumer rewritten to read the renaming register
// sees the producer's value before the copy commits.
func TestSourceForwarding(t *testing.T) {
	st := newState()
	st.SetReg(1, 10)
	e := New(st)
	ren := sched.RenameReg{Class: sched.RenInt, Idx: 0}
	prod := slot(isa.Inst{Op: isa.OpADD, Rd: 2, Rs1: 1, UseImm: true, Imm: 5}, 0x1000, 0)
	prod.Renames = []sched.RenamePair{{Loc: isa.IReg(2), Reg: ren}}
	cons := slot(isa.Inst{Op: isa.OpADD, Rd: 3, Rs1: 2, UseImm: true, Imm: 100}, 0x1004, 1)
	cons.SrcRenames = []sched.RenamePair{{Loc: isa.IReg(2), Reg: ren}}
	begin(t, e, block(0x1000, []*sched.Slot{prod}, []*sched.Slot{cons}))
	e.ExecLI(0)
	e.ExecLI(1)
	if st.ReadReg(3) != 115 {
		t.Fatalf("forwarded consumer got %d, want 115", st.ReadReg(3))
	}
	if st.ReadReg(2) != 0 {
		t.Fatal("architectural g2 must stay untouched (no copy in block)")
	}
}

// TestDeferredException: a speculative faulting load stashes its exception
// in the renaming register; the copy surfaces it and the block rolls back.
func TestDeferredException(t *testing.T) {
	st := newState()
	st.SetReg(1, 0xDEAD0000) // unmapped address
	st.SetReg(5, 77)
	e := New(st)
	ren := sched.RenameReg{Class: sched.RenInt, Idx: 0}
	ld := slot(isa.Inst{Op: isa.OpLD, Rd: 2, Rs1: 1, UseImm: true}, 0x1000, 0)
	ld.IsMem = true
	ld.MemSize = 4
	ld.Renames = []sched.RenamePair{{Loc: isa.IReg(2), Reg: ren}}
	clobber := slot(isa.Inst{Op: isa.OpOR, Rd: 5, Rs1: 0, UseImm: true, Imm: 1}, 0x1004, 1)
	cp := &sched.Slot{IsCopy: true, Addr: 0x1000, Seq: 0,
		Copies: []sched.RenamePair{{Loc: isa.IReg(2), Reg: ren}}}
	begin(t, e, block(0x1000, []*sched.Slot{ld}, []*sched.Slot{clobber}, []*sched.Slot{cp}))

	if res := e.ExecLI(0); res.Err != nil {
		t.Fatal("speculative fault must be deferred")
	}
	if res := e.ExecLI(1); res.Err != nil {
		t.Fatal(res.Err)
	}
	if st.ReadReg(5) != 1 {
		t.Fatal("clobber did not commit")
	}
	res := e.ExecLI(2)
	if res.Err == nil {
		t.Fatal("copy must surface the deferred exception")
	}
	if res.RecoveryCycles < 1 {
		t.Fatal("recovery cycles not charged")
	}
	// Rollback must restore everything, including the clobbered register.
	if st.ReadReg(5) != 77 {
		t.Fatalf("rollback failed: g5=%d", st.ReadReg(5))
	}
}

// TestStoreRollback: committed stores are undone through the checkpoint
// recovery store list.
func TestStoreRollback(t *testing.T) {
	st := newState()
	if err := st.Mem.WriteWord(0x40010, 0x1111); err != nil {
		t.Fatal(err)
	}
	st.SetReg(1, 0x40010)
	st.SetReg(2, 0x2222)
	st.SetReg(3, 0xDEAD0000) // later faulting load address
	e := New(st)
	store := slot(isa.Inst{Op: isa.OpST, Rd: 2, Rs1: 1, UseImm: true}, 0x1000, 0)
	store.IsMem, store.IsStore, store.MemAddr, store.MemSize = true, true, 0x40010, 4
	bad := slot(isa.Inst{Op: isa.OpLD, Rd: 4, Rs1: 3, UseImm: true}, 0x1004, 1)
	bad.IsMem, bad.MemSize = true, 4
	begin(t, e, block(0x1000, []*sched.Slot{store}, []*sched.Slot{bad}))

	if res := e.ExecLI(0); res.Err != nil {
		t.Fatal(res.Err)
	}
	if v, _ := st.Mem.ReadWord(0x40010); v != 0x2222 {
		t.Fatal("store did not commit")
	}
	res := e.ExecLI(1)
	if res.Err == nil {
		t.Fatal("faulting load must raise")
	}
	if v, _ := st.Mem.ReadWord(0x40010); v != 0x1111 {
		t.Fatalf("store not rolled back: %#x", v)
	}
}

// TestRecoveryStoreFailure: when memory is unmapped under a running block,
// the recovery write of an earlier store cannot land. The engine reports
// a RecoveryError carrying the fault that forced the recovery instead of
// panicking.
func TestRecoveryStoreFailure(t *testing.T) {
	st := newState()
	st.SetReg(1, 0x40010)
	st.SetReg(2, 0x2222)
	e := New(st)
	store := slot(isa.Inst{Op: isa.OpST, Rd: 2, Rs1: 1, UseImm: true}, 0x1000, 0)
	store.IsMem, store.IsStore, store.MemAddr, store.MemSize = true, true, 0x40010, 4
	ld := slot(isa.Inst{Op: isa.OpLD, Rd: 4, Rs1: 1, UseImm: true}, 0x1004, 1)
	ld.IsMem, ld.MemSize = true, 4
	begin(t, e, block(0x1000, []*sched.Slot{store}, []*sched.Slot{ld}))

	if res := e.ExecLI(0); res.Err != nil {
		t.Fatal(res.Err)
	}
	st.Mem.Recycle()
	res := e.ExecLI(1)
	if res.Err == nil {
		t.Fatal("load from recycled memory must raise")
	}
	var re *RecoveryError
	if !errors.As(res.Err, &re) {
		t.Fatalf("Err = %v, want a *RecoveryError", res.Err)
	}
	if re.Addr != 0x40010 {
		t.Errorf("RecoveryError.Addr = %#x, want 0x40010", re.Addr)
	}
	var fe *mem.FaultError
	if !errors.As(re.Cause, &fe) || fe.Addr != 0x40010 {
		t.Errorf("RecoveryError.Cause = %v, want the load's fault at 0x40010", re.Cause)
	}
}

// TestAliasingStoreAfterYoungerLoad: a younger load that ran ahead of an
// older store to the same address is caught when the store executes.
func TestAliasingStoreAfterYoungerLoad(t *testing.T) {
	st := newState()
	st.SetReg(1, 0x40020)
	st.SetReg(2, 0x99)
	e := New(st)
	// Younger load (order 2, cross) executes first.
	ld := slot(isa.Inst{Op: isa.OpLD, Rd: 3, Rs1: 1, UseImm: true}, 0x1004, 1)
	ld.IsMem, ld.MemSize, ld.Order, ld.Cross = true, 4, 2, true
	// Older store (order 1) executes later, same address.
	store := slot(isa.Inst{Op: isa.OpST, Rd: 2, Rs1: 1, UseImm: true}, 0x1000, 0)
	store.IsMem, store.IsStore, store.MemAddr, store.MemSize, store.Order = true, true, 0x40020, 4, 1
	begin(t, e, block(0x1000, []*sched.Slot{ld}, []*sched.Slot{store}))

	if res := e.ExecLI(0); res.Err != nil {
		t.Fatal(res.Err)
	}
	res := e.ExecLI(1)
	if !errors.As(res.Err, new(*AliasingError)) {
		t.Fatalf("aliasing not detected: %+v", res)
	}
	if !strings.Contains(res.Err.Error(), "younger load") {
		t.Fatalf("wrong diagnosis: %v", res.Err)
	}
}

// TestAliasingLoadAfterYoungerStore: the symmetric case detected at the
// load against the store list.
func TestAliasingLoadAfterYoungerStore(t *testing.T) {
	st := newState()
	st.SetReg(1, 0x40030)
	st.SetReg(2, 0x55)
	e := New(st)
	// Younger store (order 2, cross) executes first.
	store := slot(isa.Inst{Op: isa.OpST, Rd: 2, Rs1: 1, UseImm: true}, 0x1004, 1)
	store.IsMem, store.IsStore, store.MemAddr, store.MemSize, store.Order, store.Cross =
		true, true, 0x40030, 4, 2, true
	// Older load (order 1) executes later.
	ld := slot(isa.Inst{Op: isa.OpLD, Rd: 3, Rs1: 1, UseImm: true}, 0x1000, 0)
	ld.IsMem, ld.MemSize, ld.Order = true, 4, 1
	begin(t, e, block(0x1000, []*sched.Slot{store}, []*sched.Slot{ld}))

	if res := e.ExecLI(0); res.Err != nil {
		t.Fatal(res.Err)
	}
	res := e.ExecLI(1)
	if !errors.As(res.Err, new(*AliasingError)) {
		t.Fatalf("aliasing not detected: %+v", res)
	}
}

// TestNoFalseAliasing: disjoint addresses and correctly ordered accesses
// pass.
func TestNoFalseAliasing(t *testing.T) {
	st := newState()
	st.SetReg(1, 0x40040)
	st.SetReg(2, 0x40080)
	e := New(st)
	store := slot(isa.Inst{Op: isa.OpST, Rd: 5, Rs1: 1, UseImm: true}, 0x1000, 0)
	store.IsMem, store.IsStore, store.MemAddr, store.MemSize, store.Order, store.Cross =
		true, true, 0x40040, 4, 1, true
	ld := slot(isa.Inst{Op: isa.OpLD, Rd: 3, Rs1: 2, UseImm: true}, 0x1004, 1)
	ld.IsMem, ld.MemSize, ld.Order, ld.Cross = true, 4, 2, true
	begin(t, e, block(0x1000, []*sched.Slot{store}, []*sched.Slot{ld}))
	if res := e.ExecLI(0); res.Err != nil {
		t.Fatal(res.Err)
	}
	if res := e.ExecLI(1); res.Err != nil {
		t.Fatalf("false aliasing: %v", res.Err)
	}
	if e.Stats.MaxStoreList != 1 || e.Stats.MaxLoadList != 1 {
		t.Fatalf("list maxima %d/%d", e.Stats.MaxStoreList, e.Stats.MaxLoadList)
	}
}

// TestMemoryCopyCommitsBufferedStore: a renamed (split) store writes its
// memory renaming register; the memory copy performs the actual write.
func TestMemoryCopyCommitsBufferedStore(t *testing.T) {
	st := newState()
	st.SetReg(1, 0x40050)
	st.SetReg(2, 0xABCD)
	e := New(st)
	ren := sched.RenameReg{Class: sched.RenMem, Idx: 0}
	prod := slot(isa.Inst{Op: isa.OpST, Rd: 2, Rs1: 1, UseImm: true}, 0x1000, 0)
	prod.IsMem, prod.IsStore, prod.MemAddr, prod.MemSize = true, true, 0x40050, 4
	prod.MemRenamed = true
	prod.Renames = []sched.RenamePair{{Loc: isa.MemLoc(0x40050, 4), Reg: ren}}
	cp := &sched.Slot{IsCopy: true, Addr: 0x1000, Seq: 0, IsMem: true, MemSize: 4,
		Copies: []sched.RenamePair{{Loc: isa.MemLoc(0x40050, 4), Reg: ren}}}
	begin(t, e, block(0x1000, []*sched.Slot{prod}, []*sched.Slot{cp}))

	if res := e.ExecLI(0); len(res.MemAddrs) != 0 {
		t.Fatalf("split store charged Data Cache accesses %#x before its copy", res.MemAddrs)
	}
	if v, _ := st.Mem.ReadWord(0x40050); v != 0 {
		t.Fatal("renamed store hit memory early")
	}
	res := e.ExecLI(1)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if v, _ := st.Mem.ReadWord(0x40050); v != 0xABCD {
		t.Fatalf("memory copy wrote %#x", v)
	}
	if len(res.MemAddrs) != 1 || res.MemAddrs[0] != 0x40050 {
		t.Fatalf("memory copy charged Data Cache accesses %#x, want [0x40050]", res.MemAddrs)
	}
}

// TestJmplDeviation: an indirect branch whose runtime target differs from
// the recorded one exits the trace at the computed target.
func TestJmplDeviation(t *testing.T) {
	st := newState()
	st.SetReg(15, 0x2000) // %o7 in window 0
	e := New(st)
	ret := slot(isa.Inst{Op: isa.OpJMPL, Rd: 0, Rs1: 15, UseImm: true, Imm: 8}, 0x1000, 0)
	ret.BrTaken = true
	ret.BrTarget = 0x3008 // recorded from a different call site
	begin(t, e, block(0x1000, []*sched.Slot{ret}))
	res := e.ExecLI(0)
	if !res.TraceExit || res.NextPC != 0x2008 {
		t.Fatalf("jmpl deviation: %+v", res)
	}
}

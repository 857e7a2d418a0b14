package vliw

import (
	"slices"
	"testing"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/asm"
	"dtsvliw/internal/isa"
	"dtsvliw/internal/mem"
	"dtsvliw/internal/progen"
	"dtsvliw/internal/sched"
)

// richBlock builds a block exercising the lowered form's main features:
// plain ALU traffic, a renamed producer with source forwarding and its
// copy, a load, a store, and a conditional branch that follows its
// recorded direction.
func richBlock() *sched.Block {
	ren := sched.RenameReg{Class: sched.RenInt, Idx: 0}
	prod := slot(isa.Inst{Op: isa.OpADD, Rd: 2, Rs1: 1, UseImm: true, Imm: 5}, 0x1000, 0)
	prod.Renames = []sched.RenamePair{{Loc: isa.IReg(2), Reg: ren}}
	cons := slot(isa.Inst{Op: isa.OpADD, Rd: 3, Rs1: 2, UseImm: true, Imm: 100}, 0x1004, 1)
	cons.SrcRenames = []sched.RenamePair{{Loc: isa.IReg(2), Reg: ren}}
	br := slot(isa.Inst{Op: isa.OpBICC, Cond: isa.CondNE, Imm: 4}, 0x1008, 2)
	br.BrTaken = false // icc zero flag clear -> bne taken; we run with Z set
	ld := slot(isa.Inst{Op: isa.OpLD, Rd: 4, Rs1: 6, UseImm: true}, 0x100c, 3)
	ld.IsMem = true
	ld.MemSize = 4
	st := slot(isa.Inst{Op: isa.OpST, Rd: 3, Rs1: 6, UseImm: true, Imm: 8}, 0x1010, 4)
	st.IsMem = true
	st.IsStore = true
	st.MemSize = 4
	st.Order = 1
	cp := &sched.Slot{IsCopy: true, Addr: 0x1004, Seq: 1,
		Copies: []sched.RenamePair{{Loc: isa.IReg(2), Reg: ren}}}
	return block(0x1000,
		[]*sched.Slot{prod, br},
		[]*sched.Slot{cons, ld, cp},
		[]*sched.Slot{st})
}

// richState primes a state so richBlock runs exception-free end to end.
func richState() *arch.State {
	st := newState()
	st.SetReg(1, 10)
	st.SetReg(6, 0x40020)
	st.SetICC(isa.ICCZ) // bne not taken, matching the recorded direction
	st.Mem.Write(0x40020, 0xCAFE, 4)
	return st
}

// TestLoweredRichBlockEndState runs richBlock through the lowered engine
// and checks every long instruction commits without an exception or a
// trace exit, and that the forwarded sum reaches memory and the load
// reaches its register.
func TestLoweredRichBlockEndState(t *testing.T) {
	b := richBlock()
	st := richState()
	e := New(st)
	begin(t, e, b)
	for li := 0; li < b.NumLIs; li++ {
		if res := e.ExecLI(li); res.Exception || res.TraceExit {
			t.Fatalf("LI %d: %+v", li, res)
		}
	}
	if v, _ := st.Mem.Read(0x40028, 4); v != 115 {
		t.Fatalf("stored value %d, want 115", v)
	}
	if st.ReadReg(4) != 0xCAFE {
		t.Fatalf("load committed %#x", st.ReadReg(4))
	}
}

// TestLowerRefusesLDSTUB: Lower returns nil for a block holding a
// non-schedulable operation the lowered form does not model; the
// machine reports such a block as a LoweringError.
func TestLowerRefusesLDSTUB(t *testing.T) {
	s := slot(isa.Inst{Op: isa.OpLDSTUB, Rd: 2, Rs1: 6, UseImm: true}, 0x1000, 0)
	s.IsMem = true
	s.MemSize = 1
	if lb := Lower(block(0x1000, []*sched.Slot{s}), 8); lb != nil {
		t.Fatal("LDSTUB block must not lower")
	}
}

// TestMaxRenameTargetsCoversEveryOp checks the premise of MaxBlockSlots:
// no schedulable operation writes more locations than maxRenameTargets,
// counting a memory write twice as lowering lists it.
func TestMaxRenameTargetsCoversEveryOp(t *testing.T) {
	for op := isa.OpInvalid + 1; op <= isa.OpUNIMP; op++ {
		in := isa.Inst{Op: op, Rd: 10, Rs1: 11, Rs2: 12, Cond: isa.CondE}
		if !in.IsSchedulable() {
			continue
		}
		n := 0
		for _, w := range in.Effects(0, 8, 0x40000).Writes {
			n++
			if w.Kind == isa.LocMem {
				n++
			}
		}
		if n > maxRenameTargets {
			t.Errorf("%v writes %d rename targets, maxRenameTargets is %d", op, n, maxRenameTargets)
		}
	}
}

// TestEngineHotLoopZeroAlloc is the engine twin of the scheduler feed
// guard: once warmed, re-entering and executing a lowered block must not
// allocate at all — the arenas, rename file and scratch buffers are all
// reused across blocks.
func TestEngineHotLoopZeroAlloc(t *testing.T) {
	b := richBlock()
	lb := Lower(b, 8)
	if lb == nil {
		t.Fatal("richBlock did not lower")
	}
	st := richState()
	e := New(st)
	runBlock := func() {
		// Re-prime the inputs the block consumed so every pass executes
		// the same path (register writes only: no allocation).
		st.SetReg(1, 10)
		st.SetReg(6, 0x40020)
		st.SetICC(isa.ICCZ)
		e.BeginLowered(lb)
		for li := 0; li < b.NumLIs; li++ {
			if res := e.ExecLI(li); res.Exception || res.TraceExit {
				t.Fatalf("LI %d: %+v", li, res)
			}
		}
	}
	runBlock() // warm the arenas
	if allocs := testing.AllocsPerRun(200, runBlock); allocs != 0 {
		t.Fatalf("warmed lowered hot loop allocates %.1f allocs/block, want 0", allocs)
	}
}

// recordBlocks runs a seeded progen program of the given shape on the
// sequential interpreter, feeds its trace to a Scheduler Unit on an 8x8
// geometry (with multicycle latencies for the multicycle shape) and
// returns every block the scheduler flushed, in flush order. The blocks
// are never recycled, so all of them stay valid.
func recordBlocks(t *testing.T, shape progen.Shape, seed int64) []*sched.Block {
	t.Helper()
	p, err := asm.Assemble(progen.Generate(progen.ShapeParams(shape, seed)))
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := mem.NewMemory()
	p.Load(m)
	m.Map(0x7E000, 0x2000)
	st := arch.NewState(8, m)
	st.PC = p.Entry
	st.SetReg(14, 0x7FF00)
	st.SetTextRange(p.TextBase, p.TextSize)
	cfg := sched.Config{Width: 8, Height: 8, NWin: 8}
	if shape == progen.ShapeMulticycle {
		cfg.LoadLatency, cfg.FPLatency, cfg.FPDivLatency = 2, 3, 8
	}
	u, err := sched.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []*sched.Block
	keep := func(b *sched.Block) {
		if b != nil {
			blocks = append(blocks, b)
		}
	}
	for seq := uint64(0); seq < 20_000 && !st.Halted; seq++ {
		pc, cwp := st.PC, st.CWP()
		in, out, err := st.StepOutcome()
		if err != nil {
			t.Fatalf("step %d: %v", seq, err)
		}
		if !in.IsSchedulable() {
			keep(u.Flush(pc, seq))
			continue
		}
		b, err := u.Insert(sched.Completed{Inst: in, Addr: pc, CWP: cwp, Outcome: out, Seq: seq})
		if err != nil {
			t.Fatal(err)
		}
		keep(b)
	}
	keep(u.Flush(st.PC, st.Instret))
	return blocks
}

// sameLowering reports whether two lowerings are identical op for op,
// down to every range and flat list.
func sameLowering(a, b *LoweredBlock) bool {
	return a.b == b.b && a.renTotal == b.renTotal &&
		slices.Equal(a.lines, b.lines) && slices.Equal(a.ops, b.ops) &&
		slices.Equal(a.brs, b.brs) && slices.Equal(a.rens, b.rens) &&
		slices.Equal(a.copies, b.copies)
}

// TestLowerIntoRecycledZeroAlloc guards the write path's lowering into
// recycled storage (the machine reuses the lowered forms Reset drains
// from the VLIW Cache). Every block of a recorded run of each progen
// shape is lowered into one LoweredBlock that last held a larger block:
// each result must pass CheckLowered and equal a fresh Lower op for op,
// so no stale entry of the previous occupant survives. Once the storage
// has grown to fit every block, lowering allocates nothing.
func TestLowerIntoRecycledZeroAlloc(t *testing.T) {
	var blocks []*sched.Block
	for _, shape := range progen.Shapes() {
		blocks = append(blocks, recordBlocks(t, shape, 1)...)
	}
	largest := blocks[0]
	for _, b := range blocks {
		if b.ValidOps > largest.ValidOps {
			largest = b
		}
	}
	dst := LowerInto(new(LoweredBlock), largest, 8)
	if dst == nil {
		t.Fatal("largest block did not lower")
	}
	splits := 0
	for i, b := range blocks {
		if b == largest {
			continue
		}
		got := LowerInto(dst, b, 8)
		if got != dst {
			t.Fatalf("block %d (%#08x): LowerInto returned %p, want the recycled %p", i, b.Tag, got, dst)
		}
		if err := CheckLowered(b, got, 8); err != nil {
			t.Fatalf("block %d (%#08x): %v", i, b.Tag, err)
		}
		if !sameLowering(got, Lower(b, 8)) {
			t.Fatalf("block %d (%#08x): recycled lowering differs from a fresh one", i, b.Tag)
		}
		splits += b.Splits
	}
	if splits == 0 {
		t.Fatal("no block carries a split; rename and copy lists untested")
	}

	allocs := testing.AllocsPerRun(20, func() {
		for _, b := range blocks {
			LowerInto(dst, b, 8)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm lowering into recycled storage allocated %.1f times per pass over %d blocks",
			allocs, len(blocks))
	}
}

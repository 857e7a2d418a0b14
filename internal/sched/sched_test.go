package sched

import (
	"strings"
	"testing"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/asm"
	"dtsvliw/internal/isa"
	"dtsvliw/internal/mem"
)

// feed executes source sequentially and inserts every completed
// instruction into a fresh scheduler, returning the scheduler, any blocks
// flushed on the way, and the final state.
func feed(t *testing.T, cfg Config, source string, maxInstr int) (*Scheduler, []*Block, *arch.State) {
	t.Helper()
	p, err := asm.Assemble(source)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := mem.NewMemory()
	p.Load(m)
	m.Map(0x7F000, 0x1000)
	st := arch.NewState(cfg.NWin, m)
	st.PC = p.Entry
	st.SetReg(14, 0x7FF00)
	st.SetTextRange(p.TextBase, p.TextSize)

	u, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []*Block
	for i := 0; i < maxInstr && !st.Halted; i++ {
		pc := st.PC
		cwp := st.CWP()
		in, out, err := st.StepOutcome()
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		if !in.IsSchedulable() {
			if b := u.Flush(pc, uint64(i)); b != nil {
				blocks = append(blocks, b)
			}
			continue
		}
		b, err := u.Insert(Completed{Inst: in, Addr: pc, CWP: cwp, Outcome: out, Seq: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if b != nil {
			blocks = append(blocks, b)
		}
	}
	return u, blocks, st
}

func cfg44() Config { return Config{Width: 3, Height: 4, NWin: 8} }

// TestFigure2Schedule replays the paper's Figure 2 example on a
// 3-wide/4-deep list and checks the published placements: instructions 1
// and 2 share the first long instruction, instruction 3 (flow dependent
// on r8) opens the second, the ld lands beside it, and `add r10,4,r10`
// splits on the anti dependency with the ld, leaving a copy.
func TestFigure2Schedule(t *testing.T) {
	src := `
	.data 0x40400
vec:	.word 1, 2, 3, 4
	.text 0x1000
start:
	or %g0, 0, %o1       ! 1: sum = 0          (r9 in the paper)
	sethi %hi(0x40000), %o0 ! 2: temp          (r8)
	or %o0, 0x400, %o3   ! 3: *a               (r11) flow dep on r8
	or %g0, 0, %o2       ! 4: 4*i = 0          (r10)
loop:
	ld [%o2+%o3], %o0    ! 5
	add %o1, %o0, %o1    ! 6
	add %o2, 4, %o2      ! 7: anti dep on ld's address read
	subcc %o2, 15, %g0   ! 8
	ble loop             ! 9
	nop                  ! 10: ignored by the scheduler
	ta 0
`
	u, _, _ := feed(t, cfg44(), src, 8) // through subcc, list still live
	if u.Len() < 3 {
		t.Fatalf("list too short: %d elements\n%s", u.Len(), u.Dump())
	}
	dump := u.Dump()
	// Element 0 must hold instructions 1 and 2 side by side.
	head := u.elems[0]
	if countValid(head) < 2 {
		t.Fatalf("head element should hold or+sethi:\n%s", dump)
	}
	// A split must have produced a COPY for add %o2,4,%o2 (anti dep with
	// the ld reading %o2).
	if u.Stats.Splits == 0 {
		t.Fatalf("expected the paper's split of add r10,4,r10:\n%s", dump)
	}
	if !strings.Contains(dump, "COPY") {
		t.Fatalf("no copy instruction in list:\n%s", dump)
	}
}

// countValid counts occupied slots.
func countValid(e *element) int {
	n := 0
	for _, s := range e.slots {
		if s != nil {
			n++
		}
	}
	return n
}

// TestTrueDependencyInstalls: a flow-dependent chain occupies one element
// per instruction even on a wide machine.
func TestTrueDependencyInstalls(t *testing.T) {
	src := `
	.text 0x1000
start:
	add %g1, 1, %g2
	add %g2, 1, %g3
	add %g3, 1, %g4
	ta 0
`
	u, _, _ := feed(t, Config{Width: 8, Height: 8, NWin: 8}, src, 3)
	if u.Len() != 3 {
		t.Fatalf("chain of 3 should occupy 3 elements, got %d\n%s", u.Len(), u.Dump())
	}
}

// TestIndependentOpsShareElement: independent instructions pack into one
// long instruction.
func TestIndependentOpsShareElement(t *testing.T) {
	src := `
	.text 0x1000
start:
	add %g1, 1, %g2
	add %g3, 1, %g4
	add %o0, 1, %o1
	add %o2, 1, %o3
	ta 0
`
	u, _, _ := feed(t, Config{Width: 8, Height: 8, NWin: 8}, src, 4)
	if u.Len() != 1 {
		t.Fatalf("independent ops should share one element, got %d\n%s", u.Len(), u.Dump())
	}
	if countValid(u.elems[0]) != 4 {
		t.Fatalf("want 4 ops in head:\n%s", u.Dump())
	}
}

// TestResourceDependencyOpensElement: a full long instruction forces the
// next element even without data dependencies.
func TestResourceDependencyOpensElement(t *testing.T) {
	src := `
	.text 0x1000
start:
	add %g1, 1, %g2
	add %g3, 1, %g4
	add %o0, 1, %o1
	ta 0
`
	u, _, _ := feed(t, Config{Width: 2, Height: 8, NWin: 8}, src, 3)
	if u.Len() != 2 || countValid(u.elems[0]) != 2 || countValid(u.elems[1]) != 1 {
		t.Fatalf("resource overflow wrong:\n%s", u.Dump())
	}
}

// TestCTIsDoNotMoveUp: a conditional branch stays put even when slots are
// free above.
func TestCTIsDoNotMoveUp(t *testing.T) {
	src := `
	.text 0x1000
start:
	cmp %g1, %g2
	bne skip             ! %g1 == %g2, so not taken: the add executes
	add %g3, 1, %g3
skip:
	ta 0
`
	u, _, _ := feed(t, Config{Width: 8, Height: 8, NWin: 8}, src, 3)
	// cmp writes icc; be reads icc -> element 1; add is control-gated in
	// the same element as be (tag system), not above the cmp.
	if u.Len() != 2 {
		t.Fatalf("want 2 elements:\n%s", u.Dump())
	}
	be := findOp(u, isa.OpBICC)
	if be == nil {
		t.Fatal("branch not scheduled")
	}
	if be.Tag != 0 {
		t.Fatalf("branch tag %d, want 0", be.Tag)
	}
}

func findOp(u *Scheduler, op isa.Op) *Slot {
	for _, e := range u.elems {
		for _, s := range e.slots {
			if s != nil && !s.IsCopy && s.Inst.Op == op {
				return s
			}
		}
	}
	return nil
}

// TestTagsGateSameLIPlacement: instructions after a branch placed in the
// branch's long instruction carry a higher tag.
func TestTagsGateSameLIPlacement(t *testing.T) {
	src := `
	.text 0x1000
start:
	cmp %g1, %g2
	bne skip             ! not taken
	add %g3, 1, %g4
skip:
	add %o0, 1, %o1
	ta 0
`
	u, _, _ := feed(t, Config{Width: 8, Height: 8, NWin: 8}, src, 4)
	be := findOp(u, isa.OpBICC)
	if be == nil {
		t.Fatal("no branch")
	}
	// Both adds are after the branch in the trace; wherever they sit in
	// the branch's element they must have tag > branch tag.
	for _, e := range u.elems {
		hasBranch := false
		for _, s := range e.slots {
			if s == be {
				hasBranch = true
			}
		}
		if !hasBranch {
			continue
		}
		for _, s := range e.slots {
			if s == nil || s == be || s.IsCopy {
				continue
			}
			if s.Seq > be.Seq && s.Tag <= be.Tag {
				t.Fatalf("younger op %v has tag %d <= branch tag %d", s, s.Tag, be.Tag)
			}
		}
	}
}

// TestControlSplitRenamesAllOutputs: crossing a branch element renames
// every architectural output and leaves a copy behind.
func TestControlSplitRenamesAllOutputs(t *testing.T) {
	src := `
	.text 0x1000
start:
	cmp %g1, %g2
	be skip
skip:
	addcc %o0, 1, %o1    ! writes %o1 and icc; moving above ` + "`be`" + ` splits both
	ta 0
`
	u, _, _ := feed(t, Config{Width: 8, Height: 8, NWin: 8}, src, 3)
	addcc := findOp(u, isa.OpADDCC)
	if addcc == nil {
		t.Fatal("addcc not found")
	}
	if len(addcc.Renames) != 2 {
		t.Fatalf("addcc renames = %v, want both %%o1 and icc renamed\n%s",
			addcc.Renames, u.Dump())
	}
	classes := map[RenameClass]bool{}
	for _, r := range addcc.Renames {
		classes[r.Reg.Class] = true
	}
	if !classes[RenInt] || !classes[RenFlag] {
		t.Fatalf("rename classes: %v", addcc.Renames)
	}
}

// TestSourceForwarding reproduces the paper's Figure 2 consumer rewrite:
// after add r10,4,r10 splits, the subcc reads the renaming register.
func TestSourceForwarding(t *testing.T) {
	src := `
	.data 0x40400
vec:	.word 1, 2, 3, 4
	.text 0x1000
start:
	sethi %hi(0x40000), %o4
	or %o4, 0x400, %o3
	or %g0, 0, %o2
	ld [%o2+%o3], %o0
	add %o2, 4, %o2      ! splits on anti dep with the ld
	subcc %o2, 15, %g0   ! must read the renaming register (paper's r32)
	ta 0
`
	u, _, _ := feed(t, cfg44(), src, 6)
	subcc := findOp(u, isa.OpSUBCC)
	if subcc == nil {
		t.Fatalf("subcc missing:\n%s", u.Dump())
	}
	if len(subcc.SrcRenames) == 0 {
		t.Fatalf("subcc should source-forward from the rename register:\n%s", u.Dump())
	}
}

// TestLoadStoreOrderAndCross checks order fields and sticky cross bits.
func TestLoadStoreOrderAndCross(t *testing.T) {
	src := `
	.data 0x40000
buf:	.space 64
	.text 0x1000
start:
	set buf, %g5
	st %g1, [%g5]        ! order 0
	ld [%g5+8], %g2      ! order 1: different address, moves past the store
	ld [%g5+16], %g3     ! order 2
	ta 0
`
	u, _, _ := feed(t, Config{Width: 8, Height: 8, NWin: 8}, src, 5)
	var store, ld1 *Slot
	for _, e := range u.elems {
		for _, s := range e.slots {
			if s == nil || s.IsCopy {
				continue
			}
			switch {
			case s.Inst.Op == isa.OpST:
				store = s
			case s.Inst.Op == isa.OpLD && s.Order == 1:
				ld1 = s
			}
		}
	}
	if store == nil || ld1 == nil {
		t.Fatalf("ops missing:\n%s", u.Dump())
	}
	if store.Order != 0 {
		t.Fatalf("store order %d", store.Order)
	}
	if !ld1.Cross {
		t.Fatalf("load that cohabited with a store must have its cross bit set:\n%s", u.Dump())
	}
}

// TestFlushSemantics checks block metadata: tag, entry CWP, nba, trace
// span and the full-list flush path.
func TestFlushSemantics(t *testing.T) {
	src := `
	.text 0x1000
start:
	add %g1, 1, %g1
	add %g1, 1, %g1
	add %g1, 1, %g1
	add %g1, 1, %g1
	add %g1, 1, %g1
	ta 0
`
	_, blocks, _ := feed(t, Config{Width: 2, Height: 4, NWin: 8}, src, 5)
	if len(blocks) != 1 {
		t.Fatalf("want 1 full-flush block, got %d", len(blocks))
	}
	b := blocks[0]
	if b.Tag != 0x1000 {
		t.Errorf("tag %#x", b.Tag)
	}
	if b.NumLIs != 4 {
		t.Errorf("numLIs %d", b.NumLIs)
	}
	if b.NBA.Addr != 0x1010 || b.NBA.Line != 3 {
		t.Errorf("nba %v", b.NBA)
	}
	if b.FirstSeq != 0 || b.EndSeq != 4 {
		t.Errorf("trace span [%d,%d)", b.FirstSeq, b.EndSeq)
	}
	if b.ValidOps != 4 {
		t.Errorf("validOps %d", b.ValidOps)
	}
}

// TestConservativeMode: after MarkConservative the block keeps memory
// operations strictly ordered.
func TestConservativeMode(t *testing.T) {
	src := `
	.data 0x40000
buf:	.space 64
	.text 0x1000
start:
	set buf, %g5
	st %g1, [%g5]
	ld [%g5+8], %g2
	ld [%g5+16], %g3
	ta 0
`
	cfg := Config{Width: 8, Height: 8, NWin: 8}
	// First, unconstrained: the two loads join the store's element.
	u1, _, _ := feed(t, cfg, src, 6)
	memElems1 := elementsWithMem(u1)

	// Now conservative for the block starting at the first instruction.
	p, _ := asm.Assemble(src)
	u2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	u2.MarkConservative(p.Entry, 0)
	m := mem.NewMemory()
	p.Load(m)
	st := arch.NewState(cfg.NWin, m)
	st.PC = p.Entry
	st.SetTextRange(p.TextBase, p.TextSize)
	for i := 0; i < 6 && !st.Halted; i++ {
		pc, cwp := st.PC, st.CWP()
		in, out, err := st.StepOutcome()
		if err != nil {
			t.Fatal(err)
		}
		if !in.IsSchedulable() {
			break
		}
		if _, err := u2.Insert(Completed{Inst: in, Addr: pc, CWP: cwp, Outcome: out, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	memElems2 := elementsWithMem(u2)
	if memElems2 <= memElems1 {
		t.Fatalf("conservative scheduling should serialise memory: %d vs %d elements\n%s",
			memElems2, memElems1, u2.Dump())
	}
	if u2.Stats.ConservativeBl != 1 {
		t.Errorf("conservative blocks = %d", u2.Stats.ConservativeBl)
	}
}

func elementsWithMem(u *Scheduler) int {
	n := 0
	for _, e := range u.elems {
		for _, s := range e.slots {
			if s != nil && s.IsMem {
				n++
				break
			}
		}
	}
	return n
}

// TestUncondBranchIgnored: ba and nop never occupy slots.
func TestUncondBranchIgnored(t *testing.T) {
	src := `
	.text 0x1000
start:
	add %g1, 1, %g1
	ba next
next:
	nop
	add %g1, 1, %g1
	ta 0
`
	u, _, _ := feed(t, Config{Width: 4, Height: 4, NWin: 8}, src, 4)
	total := 0
	for _, e := range u.elems {
		total += countValid(e)
	}
	if total != 2 {
		t.Fatalf("slots used = %d, want 2 (ba and nop ignored)\n%s", total, u.Dump())
	}
	if u.Stats.Ignored != 2 {
		t.Fatalf("ignored = %d", u.Stats.Ignored)
	}
}

// TestConfigValidation rejects impossible FU assignments.
func TestConfigValidation(t *testing.T) {
	bad := Config{Width: 2, Height: 4, NWin: 8,
		FUs: []isa.FUClass{isa.FUInt, isa.FUInt}} // no branch/ld-st/fp slots
	if err := bad.Validate(); err == nil {
		t.Error("config without load/store slots must be rejected")
	}
	good := Config{Width: 2, Height: 4, NWin: 8,
		FUs: []isa.FUClass{isa.FUAny, isa.FUBranch}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestProgramOrderInvariant is the structural property over random-ish
// streams: a slot never reads a location written by an older instruction
// placed in the same or a later long instruction (read-before-write makes
// same-LI anti-dependencies legal; flow must cross LIs).
func TestProgramOrderInvariant(t *testing.T) {
	src := `
	.data 0x40000
buf:	.space 256
	.text 0x1000
start:
	set buf, %g5
	mov 20, %l7
loop:
	and %l7, 0x3C, %g1
	st %l7, [%g5+%g1]
	ld [%g5+8], %g2
	add %g2, %l7, %g3
	xor %g3, %g1, %g4
	subcc %l7, 1, %l7
	bg loop
	ta 0
`
	_, blocks, _ := feed(t, Config{Width: 4, Height: 6, NWin: 8}, src, 400)
	checked := 0
	for _, b := range blocks {
		for li := 0; li < b.NumLIs; li++ {
			for _, s := range b.LIs[li] {
				if s == nil {
					continue
				}
				for lj := li; lj < b.NumLIs; lj++ {
					for _, w := range b.LIs[lj] {
						if w == nil || w == s || w.Seq >= s.Seq {
							continue
						}
						// w is older; s must not flow-depend on w unless w
						// is in an earlier LI.
						for _, rd := range s.Reads() {
							for _, wr := range w.Writes() {
								if rd.Overlaps(wr) {
									t.Fatalf("block %#x: slot %v (LI %d) reads %v written by older %v in LI %d",
										b.Tag, s, li, rd, w, lj)
								}
								checked++
							}
						}
					}
				}
			}
		}
	}
	if len(blocks) == 0 {
		t.Fatal("no blocks flushed")
	}
}

// TestInsertRejectsWindowPointerOutsideNWin: an instruction whose window
// pointer lies outside the configured register windows names registers
// the location index does not cover, so Insert refuses it with an error.
func TestInsertRejectsWindowPointerOutsideNWin(t *testing.T) {
	u, err := New(Config{Width: 4, Height: 4, NWin: 8})
	if err != nil {
		t.Fatal(err)
	}
	add := isa.Inst{Op: isa.OpADD, Rd: 17, Rs1: 16, UseImm: true, Imm: 1} // %l1 = %l0 + 1
	if _, err := u.Insert(Completed{Inst: add, Addr: 0x1000, CWP: 8}); err == nil {
		t.Fatal("window pointer 8 of 8 windows accepted")
	}
	if _, err := u.Insert(Completed{Inst: add, Addr: 0x1000, CWP: 7}); err != nil {
		t.Fatalf("window pointer 7 of 8 windows refused: %v", err)
	}
}

package progcheck

import (
	"strings"
	"testing"

	"dtsvliw/internal/asm"
)

// build assembles source and constructs its CFG, failing the test on any
// assembler error.
func build(t *testing.T, source string) *CFG {
	t.Helper()
	p, err := asm.Assemble(source)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return BuildCFG(p)
}

// blockStarts lists the CFG's block start addresses.
func blockStarts(c *CFG) []uint32 {
	out := make([]uint32, len(c.Blocks))
	for i := range c.Blocks {
		out[i] = c.Blocks[i].Start
	}
	return out
}

func TestCFGStraightLine(t *testing.T) {
	c := build(t, `
start:
	mov 1, %o0
	add %o0, 2, %o1
	ta 0
`)
	if len(c.Blocks) != 1 {
		t.Fatalf("got %d blocks, want 1: %v", len(c.Blocks), blockStarts(c))
	}
	b := &c.Blocks[0]
	if b.Len() != 3 || !b.Reachable || len(b.Succs) != 0 {
		t.Fatalf("block = %+v, want 3 reachable instructions with no successors", b)
	}
}

func TestCFGDiamond(t *testing.T) {
	// start -> (then | else) -> join: four blocks, join has two preds,
	// and start dominates everything while neither arm dominates join.
	c := build(t, `
start:
	subcc %g0, 1, %g1
	be thenb
	nop
	mov 2, %o0
	b join
	nop
thenb:
	mov 3, %o0
join:
	ta 0
`)
	join := c.BlockAt(c.Prog.Symbols["join"])
	thenb := c.BlockAt(c.Prog.Symbols["thenb"])
	if join < 0 || thenb < 0 {
		t.Fatalf("missing labeled blocks in %v", blockStarts(c))
	}
	if got := len(c.Blocks[join].Preds); got != 2 {
		t.Fatalf("join has %d preds, want 2", got)
	}
	if !c.Dominates(c.Entry, join) {
		t.Error("entry must dominate the join block")
	}
	if c.Dominates(thenb, join) {
		t.Error("one arm of a diamond must not dominate the join")
	}
	if idom := c.Blocks[join].Idom; idom == thenb {
		t.Errorf("join's idom is the then-arm %d, want a common dominator", idom)
	}
}

func TestCFGLoopDetection(t *testing.T) {
	c := build(t, `
start:
	mov 10, %l0
loop:
	subcc %l0, 1, %l0
	bg loop
	nop
	ta 0
`)
	if len(c.Loops) != 1 {
		t.Fatalf("got %d loops, want 1", len(c.Loops))
	}
	l := c.Loops[0]
	if head := c.Blocks[l.Head].Start; head != c.Prog.Symbols["loop"] {
		t.Errorf("loop head at %#x, want the loop label %#x", head, c.Prog.Symbols["loop"])
	}
	for _, bi := range l.Blocks {
		if !c.Dominates(l.Head, bi) {
			t.Errorf("loop head does not dominate member block %d", bi)
		}
	}
}

func TestCFGNestedLoops(t *testing.T) {
	c := build(t, `
start:
	mov 4, %l0
outer:
	mov 4, %l1
inner:
	subcc %l1, 1, %l1
	bg inner
	nop
	subcc %l0, 1, %l0
	bg outer
	nop
	ta 0
`)
	if len(c.Loops) != 2 {
		t.Fatalf("got %d loops, want 2 (outer and inner)", len(c.Loops))
	}
	// Loops are ordered by header address: outer first, inner second; the
	// outer loop must contain every inner block.
	outer, inner := c.Loops[0], c.Loops[1]
	if c.Blocks[outer.Head].Start > c.Blocks[inner.Head].Start {
		outer, inner = inner, outer
	}
	members := map[int]bool{}
	for _, bi := range outer.Blocks {
		members[bi] = true
	}
	for _, bi := range inner.Blocks {
		if !members[bi] {
			t.Errorf("inner-loop block %d is not inside the outer loop", bi)
		}
	}
}

func TestCFGCallEdges(t *testing.T) {
	// call f: successors are f and call+8; the delay word after the call
	// is a CallPad block, not flagged unreachable.
	c := build(t, `
start:
	call f
	nop
	ta 0
f:
	retl
	nop
`)
	ds := c.structural()
	for _, d := range ds {
		t.Errorf("unexpected diagnostic: %s", d.String())
	}
	entry := &c.Blocks[c.Entry]
	fb := c.BlockAt(c.Prog.Symbols["f"])
	ret := c.BlockAt(c.Prog.Symbols["start"] + 8)
	found := map[int]bool{}
	for _, s := range entry.Succs {
		found[s] = true
	}
	if !found[fb] || !found[ret] {
		t.Errorf("call successors = %v, want callee %d and return point %d", entry.Succs, fb, ret)
	}
}

func TestBoundDominatesSerialExecution(t *testing.T) {
	// A chain of fully dependent adds has critical path = length, so the
	// bound must collapse to ~1 IPC; independent adds must scale with
	// width.
	serial := build(t, `
start:
	mov 1, %g1
	add %g1, 1, %g1
	add %g1, 1, %g1
	add %g1, 1, %g1
	add %g1, 1, %g1
	add %g1, 1, %g1
	add %g1, 1, %g1
	ta 0
`)
	par := build(t, `
start:
	mov 1, %g1
	mov 2, %g2
	mov 3, %g3
	mov 4, %g4
	mov 5, %g5
	mov 6, %g6
	mov 7, %g7
	ta 0
`)
	p := BoundParams{Width: 4, Height: 4}
	bs := ComputeBound(serial, p)
	bp := ComputeBound(par, p)
	if bs.IPC > 1.5 {
		t.Errorf("serial chain bound = %.2f, want near 1 (critical path bound)", bs.IPC)
	}
	if bp.IPC < 2.0 {
		t.Errorf("independent ops bound = %.2f, want well above 1 (width bound)", bp.IPC)
	}
	if bp.IPC <= bs.IPC {
		t.Errorf("parallel bound %.2f must exceed serial bound %.2f", bp.IPC, bs.IPC)
	}
}

func TestReportDeterministic(t *testing.T) {
	src := `
start:
	add %g1, 1, %o0
	ta 0
`
	r1, err := Check(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Check(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := r1.Report("t"), r2.Report("t"); a != b {
		t.Fatalf("reports differ:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(r1.Report("t"), "uninit-read") {
		t.Errorf("expected an uninit-read for %%g1:\n%s", r1.Report("t"))
	}
}

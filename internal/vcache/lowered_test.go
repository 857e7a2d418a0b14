package vcache

import (
	"testing"

	"dtsvliw/internal/isa"
	"dtsvliw/internal/sched"
	"dtsvliw/internal/vliw"
)

// lblk builds a one-instruction block with its lowered form, chained to
// next via the nba store.
func lblk(t *testing.T, tag uint32, cwp uint8, next uint32) (*sched.Block, *vliw.LoweredBlock) {
	t.Helper()
	b := &sched.Block{Tag: tag, EntryCWP: cwp, NumLIs: 1, LIs: [][]*sched.Slot{{
		{Inst: isa.Inst{Op: isa.OpADD, Rd: 1, Rs1: 1, UseImm: true, Imm: 1}, Addr: tag},
	}}}
	b.NBA = sched.LongAddr{Addr: next, Line: 0}
	low := vliw.Lower(b, 8)
	if low == nil {
		t.Fatalf("block %#x did not lower", tag)
	}
	return b, low
}

// TestLoweredPayloadRoundTrip: Save stores the lowered form alongside the
// block and Lookup hands back the same payload.
func TestLoweredPayloadRoundTrip(t *testing.T) {
	c, err := New(cfg(96, 4))
	if err != nil {
		t.Fatal(err)
	}
	b, low := lblk(t, 0x1000, 2, 0x1004)
	c.Save(b, low)
	ent, ok := c.Lookup(0x1000, 2)
	if !ok || ent.Blk != b || ent.Low != low {
		t.Fatalf("round trip lost payload: %+v", ent)
	}
	if ent.Low.Block() != b {
		t.Fatal("lowered form does not point back at its block")
	}
}

// TestEvictionDropsLoweredBlock: when the LRU way is replaced, the
// evicted line's lowered payload goes with it — a later save of the same
// tag installs the new block's own lowered form, never the stale one.
func TestEvictionDropsLoweredBlock(t *testing.T) {
	c, err := New(Config{SizeKB: 1, Assoc: 2, Width: 8, Height: 8})
	if err != nil {
		t.Fatal(err)
	}
	sets := c.Config().Blocks() / 2
	t0 := uint32(0x1000)
	t1 := t0 + uint32(sets)*4
	t2 := t1 + uint32(sets)*4

	b0, low0 := lblk(t, t0, 0, t0+4)
	b1, low1 := lblk(t, t1, 0, t1+4)
	b2, low2 := lblk(t, t2, 0, t2+4)
	c.Save(b0, low0)
	c.Save(b1, low1)
	c.Lookup(t0, 0) // touch t0 so t1 is LRU
	c.Save(b2, low2)

	if _, ok := c.Probe(t1, 0); ok {
		t.Fatal("LRU block survived")
	}
	ent, ok := c.Probe(t2, 0)
	if !ok || ent.Low != low2 {
		t.Fatal("replacement did not install the new lowered payload")
	}

	// Re-saving t1 (as after a re-schedule) must yield its fresh lowering.
	b1b, low1b := lblk(t, t1, 0, t1+8)
	c.Save(b1b, low1b)
	ent, ok = c.Probe(t1, 0)
	if !ok || ent.Blk != b1b || ent.Low != low1b || ent.Low == low1 {
		t.Fatal("stale lowered payload resurfaced after replacement")
	}
}

// TestNBAChainingReResolvesAfterReplacement: the machine follows a hit
// block's nba to look up its successor. After the successor is replaced
// by a re-scheduled version, the same nba walk must resolve to the new
// entry (block and lowered form both).
func TestNBAChainingReResolvesAfterReplacement(t *testing.T) {
	c, err := New(cfg(96, 4))
	if err != nil {
		t.Fatal(err)
	}
	head, lowHead := lblk(t, 0x2000, 1, 0x2100)
	succ1, lowSucc1 := lblk(t, 0x2100, 1, 0x2200)
	c.Save(head, lowHead)
	c.Save(succ1, lowSucc1)

	ent, ok := c.Lookup(0x2000, 1)
	if !ok {
		t.Fatal("head missing")
	}
	next, ok := c.Lookup(ent.Blk.NBA.Addr, 1)
	if !ok || next.Blk != succ1 || next.Low != lowSucc1 {
		t.Fatal("nba walk did not reach the successor")
	}

	// The successor is re-scheduled (same tag, new block + lowering).
	succ2, lowSucc2 := lblk(t, 0x2100, 1, 0x2300)
	c.Save(succ2, lowSucc2)
	next, ok = c.Lookup(ent.Blk.NBA.Addr, 1)
	if !ok {
		t.Fatal("successor lost after replacement")
	}
	if next.Blk != succ2 || next.Low != lowSucc2 {
		t.Fatal("nba walk resolved to the stale entry after replacement")
	}
}

// TestInvalidateLoweredAccounting: invalidating a line with a lowered
// payload drops both forms and counts exactly once; re-invalidating a
// missing line counts nothing.
func TestInvalidateLoweredAccounting(t *testing.T) {
	c, err := New(cfg(96, 4))
	if err != nil {
		t.Fatal(err)
	}
	b, low := lblk(t, 0x3000, 0, 0x3004)
	c.Save(b, low)
	c.Invalidate(0x3000, 0)
	if _, ok := c.Probe(0x3000, 0); ok {
		t.Fatal("invalidated block still present")
	}
	if c.Invalidats != 1 {
		t.Fatalf("Invalidats = %d, want 1", c.Invalidats)
	}
	c.Invalidate(0x3000, 0) // already gone
	if c.Invalidats != 1 {
		t.Fatalf("Invalidats after double invalidate = %d, want 1", c.Invalidats)
	}
	// A fresh save after invalidation installs a fresh payload.
	b2, low2 := lblk(t, 0x3000, 0, 0x3008)
	c.Save(b2, low2)
	ent, ok := c.Lookup(0x3000, 0)
	if !ok || ent.Blk != b2 || ent.Low != low2 {
		t.Fatal("save after invalidate did not install the new payload")
	}
}

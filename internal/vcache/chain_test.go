package vcache

import (
	"testing"
)

// tiny returns a one-set cache (Assoc ways total), so every tag collides
// and replacement can be forced deterministically.
func tiny(assoc int) *Cache {
	c, err := New(Config{SizeKB: 1, Assoc: assoc, Width: 8, Height: 8})
	if err != nil {
		panic(err)
	}
	if c.Sets() != 1 {
		panic("tiny cache not one set")
	}
	return c
}

func mustLine(t *testing.T, c *Cache, addr uint32, cwp uint8) int32 {
	t.Helper()
	_, line, ok := c.LookupLine(addr, cwp)
	if !ok {
		t.Fatalf("lookup (%#x, %d) missed", addr, cwp)
	}
	return line
}

func TestChainLinkFollow(t *testing.T) {
	c := tiny(4)
	c.Save(blk(0x1000, 0), nil)
	c.Save(blk(0x2000, 0), nil)
	from := mustLine(t, c, 0x1000, 0)
	to := mustLine(t, c, 0x2000, 0)

	if _, _, ok := c.Follow(from, 0x2000, 0); ok {
		t.Fatal("follow before link must miss")
	}
	c.Link(from, 0x2000, 0, to)
	if c.ChainLinks != 1 {
		t.Fatalf("ChainLinks %d", c.ChainLinks)
	}

	hits := c.Hits
	ent, got, ok := c.Follow(from, 0x2000, 0)
	if !ok || got != to {
		t.Fatalf("follow: line %d ok %v, want %d", got, ok, to)
	}
	if ent.Blk == nil || ent.Blk.Tag != 0x2000 {
		t.Fatal("follow returned wrong entry")
	}
	// A chain hit is architecturally a cache hit: same hit count, same
	// LRU touch as Lookup would have performed.
	if c.Hits != hits+1 || c.ChainHits != 1 {
		t.Fatalf("hits %d chain hits %d", c.Hits, c.ChainHits)
	}
	// Wrong exit PC or CWP must not follow the edge.
	if _, _, ok := c.Follow(from, 0x2004, 0); ok {
		t.Fatal("wrong pc followed")
	}
	if _, _, ok := c.Follow(from, 0x2000, 1); ok {
		t.Fatal("wrong cwp followed")
	}
}

// TestChainFollowLRUParity checks the invisibility contract at the
// replacement level: a transition resolved by Follow must leave the same
// LRU order behind as one resolved by Lookup, so the next eviction picks
// the same victim either way.
func TestChainFollowLRUParity(t *testing.T) {
	run := func(chain bool) uint32 {
		c := tiny(2)
		c.Save(blk(0x1000, 0), nil)
		c.Save(blk(0x2000, 0), nil)
		from := mustLine(t, c, 0x1000, 0)
		to := mustLine(t, c, 0x2000, 0)
		c.Link(from, 0x1000, 0, from) // self-edge, exercised below
		c.Link(from, 0x2000, 0, to)
		// Touch 0x1000 last via either mechanism, then evict.
		if chain {
			if _, _, ok := c.Follow(to, 0x1000, 0); ok {
				t.Fatal("unlinked direction followed")
			}
			c.Link(to, 0x1000, 0, from)
			if _, _, ok := c.Follow(to, 0x1000, 0); !ok {
				t.Fatal("follow missed")
			}
		} else {
			mustLine(t, c, 0x1000, 0)
		}
		c.Save(blk(0x3000, 0), nil) // evicts the LRU way
		for _, tag := range []uint32{0x1000, 0x2000} {
			if _, ok := c.Probe(tag, 0); !ok {
				return tag // the evicted one
			}
		}
		t.Fatal("nothing evicted")
		return 0
	}
	if l, ch := run(false), run(true); l != ch {
		t.Fatalf("eviction victim differs: lookup evicted %#x, chained evicted %#x", l, ch)
	}
	// Either way the least-recently-touched block (0x2000) must go.
	if v := run(true); v != 0x2000 {
		t.Fatalf("evicted %#x, want 0x2000", v)
	}
}

func TestChainUnlinkOnEviction(t *testing.T) {
	c := tiny(2)
	c.Save(blk(0x1000, 0), nil)
	c.Save(blk(0x2000, 0), nil)
	from := mustLine(t, c, 0x1000, 0)
	to := mustLine(t, c, 0x2000, 0)
	c.Link(from, 0x2000, 0, to)
	c.Link(to, 0x1000, 0, from)
	mustLine(t, c, 0x2000, 0) // make 0x1000 the LRU victim

	c.Save(blk(0x3000, 0), nil) // evicts 0x1000's line
	if _, ok := c.Probe(0x1000, 0); ok {
		t.Fatal("victim still present")
	}
	// Both directions must be severed: 0x2000 must no longer link to the
	// line now holding 0x3000, and the recycled line must carry no edges.
	if _, got, ok := c.Follow(to, 0x1000, 0); ok {
		t.Fatalf("stale inbound edge survived eviction (to line %d)", got)
	}
	if _, _, ok := c.Follow(from, 0x2000, 0); ok {
		t.Fatal("recycled line inherited the victim's outbound edge")
	}
	if c.ChainUnlinks != 2 {
		t.Fatalf("ChainUnlinks %d, want 2", c.ChainUnlinks)
	}
	// inRefs hygiene: relinking and evicting again must not double-sever.
	newTo := mustLine(t, c, 0x2000, 0)
	c.Link(from, 0x2000, 0, newTo)
	if _, _, ok := c.Follow(from, 0x2000, 0); !ok {
		t.Fatal("relink after eviction failed")
	}
}

func TestChainUnlinkOnSameTagSave(t *testing.T) {
	c := tiny(4)
	c.Save(blk(0x1000, 0), nil)
	c.Save(blk(0x2000, 0), nil)
	from := mustLine(t, c, 0x1000, 0)
	to := mustLine(t, c, 0x2000, 0)
	c.Link(from, 0x2000, 0, to)
	c.Link(to, 0x1000, 0, from)

	// Rescheduling 0x2000 replaces it in place; a link must not keep
	// dispatching the stale lowered form in either direction.
	c.Save(blk(0x2000, 0), nil)
	if _, _, ok := c.Follow(from, 0x2000, 0); ok {
		t.Fatal("edge to rescheduled block survived")
	}
	if _, _, ok := c.Follow(to, 0x1000, 0); ok {
		t.Fatal("rescheduled block kept its outbound edge")
	}
	if c.Replaced != 0 {
		t.Fatal("same-tag overwrite must not count as replacement")
	}
	if c.ChainUnlinks != 2 {
		t.Fatalf("ChainUnlinks %d, want 2", c.ChainUnlinks)
	}
}

func TestChainUnlinkOnInvalidate(t *testing.T) {
	c := tiny(4)
	c.Save(blk(0x1000, 0), nil)
	c.Save(blk(0x2000, 0), nil)
	from := mustLine(t, c, 0x1000, 0)
	to := mustLine(t, c, 0x2000, 0)
	c.Link(from, 0x2000, 0, to)

	c.Invalidate(0x2000, 0) // aliasing path
	if _, _, ok := c.Follow(from, 0x2000, 0); ok {
		t.Fatal("edge to invalidated block survived")
	}
	if c.ChainUnlinks != 1 {
		t.Fatalf("ChainUnlinks %d, want 1", c.ChainUnlinks)
	}
}

func TestChainSelfLoop(t *testing.T) {
	c := tiny(4)
	c.Save(blk(0x1000, 0), nil)
	l := mustLine(t, c, 0x1000, 0)
	c.Link(l, 0x1000, 0, l)
	if _, got, ok := c.Follow(l, 0x1000, 0); !ok || got != l {
		t.Fatal("self-loop follow failed")
	}
	c.Save(blk(0x1000, 0), nil) // same-tag replace severs the loop once
	if _, _, ok := c.Follow(l, 0x1000, 0); ok {
		t.Fatal("self-loop survived replacement")
	}
	if c.ChainUnlinks != 1 {
		t.Fatalf("self-loop severed %d times, want 1", c.ChainUnlinks)
	}
}

func TestChainEdgeTableBound(t *testing.T) {
	c, err := New(cfg(96, 4))
	if err != nil {
		t.Fatal(err)
	}
	c.Save(blk(0x1000, 0), nil)
	from := mustLine(t, c, 0x1000, 0)
	for i := 0; i < chainMaxEdges+4; i++ {
		tag := uint32(0x2000 + 4*i)
		c.Save(blk(tag, 0), nil)
		to := mustLine(t, c, tag, 0)
		c.Link(from, tag, 0, to)
	}
	if c.ChainLinks != chainMaxEdges {
		t.Fatalf("ChainLinks %d, want table bound %d", c.ChainLinks, chainMaxEdges)
	}
	// First-installed edges win; overflow targets keep missing.
	if _, _, ok := c.Follow(from, 0x2000, 0); !ok {
		t.Fatal("first edge lost")
	}
	if _, _, ok := c.Follow(from, uint32(0x2000+4*chainMaxEdges), 0); ok {
		t.Fatal("overflow edge installed")
	}
	// Duplicate link is a no-op.
	to := mustLine(t, c, 0x2000, 0)
	c.Link(from, 0x2000, 0, to)
	if c.ChainLinks != chainMaxEdges {
		t.Fatal("duplicate link counted")
	}
}

func TestChainDrainClears(t *testing.T) {
	c := tiny(4)
	c.Save(blk(0x1000, 0), nil)
	c.Save(blk(0x2000, 0), nil)
	from := mustLine(t, c, 0x1000, 0)
	to := mustLine(t, c, 0x2000, 0)
	c.Link(from, 0x2000, 0, to)
	c.Drain(nil)
	if c.ChainHits != 0 || c.ChainLinks != 0 || c.ChainUnlinks != 0 {
		t.Fatal("chain counters survived drain")
	}
	// Pool-reuse shape: the recycled line must start with no edges even
	// though its storage kept capacity.
	c.Save(blk(0x1000, 0), nil)
	nfrom := mustLine(t, c, 0x1000, 0)
	if _, _, ok := c.Follow(nfrom, 0x2000, 0); ok {
		t.Fatal("drained cache kept a chain edge")
	}
}

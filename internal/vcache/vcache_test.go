package vcache

import (
	"fmt"
	"testing"

	"dtsvliw/internal/sched"
)

func cfg(kb, assoc int) Config {
	return Config{SizeKB: kb, Assoc: assoc, Width: 8, Height: 8}
}

func blk(tag uint32, cwp uint8) *sched.Block {
	return &sched.Block{Tag: tag, EntryCWP: cwp, NumLIs: 1, LIs: [][]*sched.Slot{nil}}
}

func TestCapacityArithmetic(t *testing.T) {
	c := cfg(192, 4)
	if c.BlockBytes() != 8*8*6+5 {
		t.Fatalf("block bytes %d", c.BlockBytes())
	}
	// The paper's 192-KB cache of 8x8 blocks holds ~505 blocks.
	if n := c.Blocks(); n < 500 || n > 510 {
		t.Fatalf("blocks %d", n)
	}
}

func TestSaveLookupInvalidate(t *testing.T) {
	c, err := New(cfg(96, 4))
	if err != nil {
		t.Fatal(err)
	}
	b := blk(0x1000, 3)
	c.Save(b, nil)
	if _, ok := c.Lookup(0x1000, 3); !ok {
		t.Fatal("block not found")
	}
	if _, ok := c.Lookup(0x1000, 4); ok {
		t.Fatal("wrong CWP must miss (stale window depth)")
	}
	if _, ok := c.Lookup(0x1004, 3); ok {
		t.Fatal("wrong address must miss")
	}
	c.Invalidate(0x1000, 3)
	if _, ok := c.Lookup(0x1000, 3); ok {
		t.Fatal("invalidated block still present")
	}
	if c.Hits != 1 || c.Misses != 3 || c.Invalidats != 1 {
		t.Fatalf("stats: hits %d misses %d inval %d", c.Hits, c.Misses, c.Invalidats)
	}
}

func TestSameTagDifferentCWPCoexist(t *testing.T) {
	c, err := New(cfg(96, 4))
	if err != nil {
		t.Fatal(err)
	}
	c.Save(blk(0x2000, 1), nil)
	c.Save(blk(0x2000, 2), nil)
	if _, ok := c.Probe(0x2000, 1); !ok {
		t.Fatal("cwp 1 version lost")
	}
	if _, ok := c.Probe(0x2000, 2); !ok {
		t.Fatal("cwp 2 version lost")
	}
}

func TestOverwriteSameTag(t *testing.T) {
	c, err := New(cfg(96, 4))
	if err != nil {
		t.Fatal(err)
	}
	b1 := blk(0x3000, 0)
	b2 := blk(0x3000, 0)
	c.Save(b1, nil)
	c.Save(b2, nil)
	got, ok := c.Probe(0x3000, 0)
	if !ok || got.Blk != b2 {
		t.Fatal("rescheduled block should replace the old version in place")
	}
	if c.Replaced != 0 {
		t.Fatal("same-tag overwrite should not count as replacement")
	}
}

func TestLRUReplacement(t *testing.T) {
	// Tiny cache: force one set and measure eviction order.
	c, err := New(Config{SizeKB: 1, Assoc: 2, Width: 8, Height: 8})
	if err != nil {
		t.Fatal(err)
	}
	sets := c.Config().Blocks() / 2
	// Two tags in the same set plus a third forces LRU eviction.
	t0 := uint32(0x1000)
	t1 := t0 + uint32(sets)*4
	t2 := t1 + uint32(sets)*4
	c.Save(blk(t0, 0), nil)
	c.Save(blk(t1, 0), nil)
	c.Lookup(t0, 0) // touch t0
	c.Save(blk(t2, 0), nil)
	if _, ok := c.Probe(t0, 0); !ok {
		t.Fatal("recently used block evicted")
	}
	if _, ok := c.Probe(t1, 0); ok {
		t.Fatal("LRU block survived")
	}
	if c.Replaced == 0 {
		t.Fatal("replacement not counted")
	}
}

func TestManyBlocksChurn(t *testing.T) {
	c, err := New(cfg(48, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		c.Save(blk(uint32(0x1000+i*4), uint8(i%4)), nil)
	}
	hits := 0
	for i := 0; i < 2000; i++ {
		if _, ok := c.Probe(uint32(0x1000+i*4), uint8(i%4)); ok {
			hits++
		}
	}
	// Physical capacity is Sets()*Assoc: the set count is rounded up to a
	// power of two, so it can exceed the byte-budget Blocks() model.
	capBlocks := c.Sets() * c.Config().Assoc
	if hits == 0 || hits > capBlocks {
		t.Fatalf("hits %d, capacity %d", hits, capBlocks)
	}
}

func TestReset(t *testing.T) {
	c, _ := New(cfg(96, 2))
	c.Save(blk(0x1000, 0), nil)
	c.Reset()
	if _, ok := c.Probe(0x1000, 0); ok {
		t.Fatal("reset did not clear contents")
	}
	if c.Stores != 0 {
		t.Fatal("reset did not clear stats")
	}
}

func TestBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestSetDistribution(t *testing.T) {
	// Block tags are word addresses; ensure consecutive word tags spread
	// over sets rather than colliding in one.
	c, _ := New(cfg(384, 4))
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		seen[c.set(uint32(0x1000+4*i))] = true
	}
	if len(seen) < 32 {
		t.Fatalf("poor set distribution: %d distinct sets of 64", len(seen))
	}
	_ = fmt.Sprintf
}

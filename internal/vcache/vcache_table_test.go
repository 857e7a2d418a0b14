package vcache

import (
	"testing"

	"dtsvliw/internal/sched"
)

// blkNBA builds a block whose next block address store points at next —
// the fall-through chaining the Fetch Unit follows at block end.
func blkNBA(tag uint32, cwp uint8, next uint32) *sched.Block {
	b := blk(tag, cwp)
	b.NBA = sched.LongAddr{Addr: next}
	return b
}

// oneSetCache returns a cache collapsed to a single set so eviction
// tables control the victim deterministically, plus the set stride.
func oneSetCache(t *testing.T, assoc int) *Cache {
	t.Helper()
	c, err := New(Config{SizeKB: 1, Assoc: assoc, Width: 16, Height: 16})
	if err != nil {
		t.Fatal(err)
	}
	if c.sets != 1 {
		t.Fatalf("expected a single set, got %d", c.sets)
	}
	return c
}

// TestEvictionTable drives save/touch sequences against a single-set
// cache and checks exactly which blocks survive.
func TestEvictionTable(t *testing.T) {
	// Ops: save N = save block with tag base+4N; touch N = Lookup it.
	type op struct {
		kind string // "save" | "touch"
		n    int
	}
	const base = 0x1000
	cases := []struct {
		name     string
		assoc    int
		ops      []op
		want     []int // surviving blocks
		evicted  []int
		replaced uint64
	}{
		{
			name:  "lru-evicts-oldest",
			assoc: 2,
			ops:   []op{{"save", 0}, {"save", 1}, {"save", 2}},
			want:  []int{1, 2}, evicted: []int{0}, replaced: 1,
		},
		{
			name:  "touch-protects",
			assoc: 2,
			ops:   []op{{"save", 0}, {"save", 1}, {"touch", 0}, {"save", 2}},
			want:  []int{0, 2}, evicted: []int{1}, replaced: 1,
		},
		{
			name:  "resave-refreshes-lru",
			assoc: 2,
			ops:   []op{{"save", 0}, {"save", 1}, {"save", 0}, {"save", 2}},
			want:  []int{0, 2}, evicted: []int{1}, replaced: 1,
		},
		{
			name:  "fills-before-evicting",
			assoc: 4,
			ops:   []op{{"save", 0}, {"save", 1}, {"save", 2}, {"save", 3}},
			want:  []int{0, 1, 2, 3}, replaced: 0,
		},
		{
			name:  "rolling-working-set",
			assoc: 2,
			ops: []op{{"save", 0}, {"save", 1}, {"touch", 1}, {"save", 2},
				{"touch", 2}, {"save", 3}},
			want: []int{2, 3}, evicted: []int{0, 1}, replaced: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := oneSetCache(t, tc.assoc)
			for _, o := range tc.ops {
				tag := uint32(base + 4*o.n)
				switch o.kind {
				case "save":
					c.Save(blk(tag, 0), nil)
				case "touch":
					if _, ok := c.Lookup(tag, 0); !ok {
						t.Fatalf("touch %d missed", o.n)
					}
				}
			}
			for _, n := range tc.want {
				if _, ok := c.Probe(uint32(base+4*n), 0); !ok {
					t.Errorf("block %d should have survived", n)
				}
			}
			for _, n := range tc.evicted {
				if _, ok := c.Probe(uint32(base+4*n), 0); ok {
					t.Errorf("block %d should have been evicted", n)
				}
			}
			if c.Replaced != tc.replaced {
				t.Errorf("Replaced = %d, want %d", c.Replaced, tc.replaced)
			}
		})
	}
}

// TestNBAChaining: fall-through blocks linked through their next block
// address stores are followable hit-to-hit, and a hole (invalidated or
// never-saved link) stops the chain with a miss at exactly that point.
func TestNBAChaining(t *testing.T) {
	// A chain of blocks at 0x1000, 0x1100, ...: each block's NBA points at
	// the next block's tag.
	tags := []uint32{0x1000, 0x1100, 0x1200, 0x1300}
	build := func(t *testing.T) *Cache {
		t.Helper()
		c, err := New(cfg(96, 4))
		if err != nil {
			t.Fatal(err)
		}
		for i, tag := range tags {
			next := tag + 0x100
			if i == len(tags)-1 {
				next = 0x9000 // chain leaves the cached region
			}
			c.Save(blkNBA(tag, 0, next), nil)
		}
		return c
	}
	// walk follows NBA links from the first tag, like the Fetch Unit at
	// block end, returning the tags of the blocks hit.
	walk := func(c *Cache, from uint32) []uint32 {
		var hit []uint32
		for addr := from; ; {
			ent, ok := c.Lookup(addr, 0)
			if !ok {
				return hit
			}
			hit = append(hit, ent.Blk.Tag)
			addr = ent.Blk.NBA.Addr
		}
	}

	t.Run("full-chain", func(t *testing.T) {
		c := build(t)
		got := walk(c, tags[0])
		if len(got) != len(tags) {
			t.Fatalf("walked %d blocks, want %d (%#x)", len(got), len(tags), got)
		}
		for i, tag := range tags {
			if got[i] != tag {
				t.Fatalf("chain order %#x, want %#x", got, tags)
			}
		}
		// The final NBA points outside the cache: exactly one miss.
		if c.Misses != 1 {
			t.Fatalf("misses = %d, want 1 (chain exit)", c.Misses)
		}
	})
	t.Run("hole-stops-chain", func(t *testing.T) {
		c := build(t)
		c.Invalidate(tags[2], 0)
		got := walk(c, tags[0])
		if len(got) != 2 || got[1] != tags[1] {
			t.Fatalf("walk past a hole: hit %#x", got)
		}
	})
	t.Run("wrong-cwp-breaks-chain", func(t *testing.T) {
		c := build(t)
		// A block scheduled at another window depth does not satisfy the
		// chain even with the right address.
		c.Invalidate(tags[1], 0)
		c.Save(blkNBA(tags[1], 5, tags[2]), nil)
		got := walk(c, tags[0])
		if len(got) != 1 {
			t.Fatalf("chain crossed a window-depth boundary: hit %#x", got)
		}
	})
	t.Run("rebuilt-link-restores-chain", func(t *testing.T) {
		c := build(t)
		c.Invalidate(tags[2], 0)
		c.Save(blkNBA(tags[2], 0, tags[3]), nil)
		got := walk(c, tags[0])
		if len(got) != len(tags) {
			t.Fatalf("re-saved link did not restore the chain: hit %#x", got)
		}
	})
}

// TestInvalidateEdgeCases: invalidation must be precise (tag AND window
// pointer), idempotent, and must not disturb unrelated residents.
func TestInvalidateEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, c *Cache)
	}{
		{"missing-tag-is-noop", func(t *testing.T, c *Cache) {
			c.Save(blk(0x1000, 0), nil)
			c.Invalidate(0x2000, 0)
			if c.Invalidats != 0 {
				t.Fatal("counted an invalidation that hit nothing")
			}
			if _, ok := c.Probe(0x1000, 0); !ok {
				t.Fatal("unrelated block disturbed")
			}
		}},
		{"wrong-cwp-is-noop", func(t *testing.T, c *Cache) {
			c.Save(blk(0x1000, 2), nil)
			c.Invalidate(0x1000, 3)
			if c.Invalidats != 0 {
				t.Fatal("invalidation crossed window depths")
			}
			if _, ok := c.Probe(0x1000, 2); !ok {
				t.Fatal("block at the scheduled depth was dropped")
			}
		}},
		{"double-invalidate-counts-once", func(t *testing.T, c *Cache) {
			c.Save(blk(0x1000, 0), nil)
			c.Invalidate(0x1000, 0)
			c.Invalidate(0x1000, 0)
			if c.Invalidats != 1 {
				t.Fatalf("Invalidats = %d, want 1", c.Invalidats)
			}
		}},
		{"selective-among-cwp-versions", func(t *testing.T, c *Cache) {
			c.Save(blk(0x1000, 1), nil)
			c.Save(blk(0x1000, 2), nil)
			c.Invalidate(0x1000, 1)
			if _, ok := c.Probe(0x1000, 1); ok {
				t.Fatal("target version survived")
			}
			if _, ok := c.Probe(0x1000, 2); !ok {
				t.Fatal("sibling window-depth version dropped")
			}
		}},
		{"invalidated-way-is-reusable", func(t *testing.T, c *Cache) {
			c.Save(blk(0x1000, 0), nil)
			c.Invalidate(0x1000, 0)
			c.Save(blk(0x1000, 0), nil)
			if _, ok := c.Probe(0x1000, 0); !ok {
				t.Fatal("re-save after invalidation missed")
			}
			if c.Replaced != 0 {
				t.Fatal("re-save into an invalid way counted as replacement")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(cfg(96, 4))
			if err != nil {
				t.Fatal(err)
			}
			tc.run(t, c)
		})
	}
}

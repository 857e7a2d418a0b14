// Package vcache implements the VLIW Cache (paper §3.4): a set-associative
// cache whose line is one block of long instructions, tagged with the SPARC
// ISA address of the first instruction placed in the block, with a next
// block address (nba) store per line. Long instructions within a block are
// addressed by {address field, line index} pairs. The machine resolves
// every block transition, fall-through or trace exit, with one lookup of
// the successor's address (DESIGN.md §16).
package vcache

import (
	"fmt"

	"dtsvliw/internal/sched"
	"dtsvliw/internal/telemetry"
	"dtsvliw/internal/vliw"
)

// Line storage per paper Table 1: a decoded instruction slot takes
// DecodedBytes and a line's next block address store NBABytes.
const (
	DecodedBytes = 6
	NBABytes     = 5
)

// Config sizes the VLIW Cache.
type Config struct {
	SizeKB int // total capacity in kilobytes
	Assoc  int
	// Width/Height of a block and DecodedBytes determine how many blocks
	// fit.
	Width, Height int
}

// BlockBytes returns the line size of the cache in bytes.
func (c Config) BlockBytes() int {
	return c.Width*c.Height*DecodedBytes + NBABytes
}

// Blocks returns the number of block lines the cache holds.
func (c Config) Blocks() int {
	n := c.SizeKB * 1024 / c.BlockBytes()
	if n < c.Assoc {
		n = c.Assoc
	}
	return n
}

// NoLine is the line index LookupLine returns when it misses.
const NoLine int32 = -1

// SetGroups is the number of set-index buckets the per-set activity
// counters aggregate into. A large VLIW Cache has thousands of sets —
// far too many for one metric series each — so sets are folded into
// SetGroups contiguous groups (group g covers sets [g*sets/SetGroups,
// (g+1)*sets/SetGroups)), enough to see hot-set skew without exploding
// metric cardinality.
const SetGroups = 16

// Cache is the VLIW Cache.
type Cache struct {
	cfg     Config //resetcheck:allow configuration is fixed at construction
	sets    int    //resetcheck:allow derived from cfg at construction
	setMask uint32 //resetcheck:allow sets-1 (sets is a power of two), fixed at construction
	lines   []line // sets*assoc
	clock   uint64
	// used records the index of every line that has held a block since
	// the last Drain, so resetting a reused cache touches O(stores)
	// lines instead of zeroing the whole (multi-megabyte, mostly empty)
	// line array.
	used []int

	Hits       uint64
	Misses     uint64
	Stores     uint64 // blocks saved
	Replaced   uint64 // valid blocks evicted
	Invalidats uint64

	// Per-set-group activity (DESIGN.md §17): lookups (hits + misses),
	// hits, evictions and invalidations bucketed by set index into
	// SetGroups groups. groupShift maps a set index to its group. Plain
	// single-owner counters like the totals above; the metrics publisher
	// snapshots them at coarse sync points.
	SetLookups       [SetGroups]uint64
	SetHits          [SetGroups]uint64
	SetEvictions     [SetGroups]uint64
	SetInvalidations [SetGroups]uint64
	groupShift       uint //resetcheck:allow pure function of sets, computed at construction

	tel *telemetry.Collector //resetcheck:allow nil when telemetry is disabled; pooled reuse refuses telemetry machines
}

// SetTelemetry attaches a telemetry collector (nil detaches).
func (c *Cache) SetTelemetry(t *telemetry.Collector) { c.tel = t }

type line struct {
	valid bool
	tag   uint32
	cwp   uint8
	ent   Entry
	lru   uint64
}

// Entry is one cache line's payload: the scheduled block and its
// decode-once lowered form, which the VLIW Engine executes (the software
// analogue of the paper's decoded-instruction line, §3.4). Low is nil
// until the block is first entered: the machine lowers it then and
// records the form with SetLowered, so a block evicted before it ever
// runs is never lowered (save-time verification lowers earlier). Prof
// is the block's telemetry profile, resolved once at save time so the
// per-entry hook needs no map lookup; nil when telemetry is off.
type Entry struct {
	Blk  *sched.Block
	Low  *vliw.LoweredBlock
	Prof *telemetry.BlockProf
}

// New builds a VLIW Cache.
func New(cfg Config) (*Cache, error) {
	if cfg.SizeKB <= 0 || cfg.Assoc <= 0 {
		return nil, fmt.Errorf("vcache: bad config %+v", cfg)
	}
	c := &Cache{cfg: cfg}
	c.sets = cfg.Blocks() / cfg.Assoc
	if c.sets == 0 {
		c.sets = 1
	}
	// Round the set count up to a power of two so the index computation
	// is a mask instead of a modulo. The capacity model rounds up with
	// it; DESIGN.md §16 records the deviation from the paper's exact
	// byte budget.
	pow := 1
	for pow < c.sets {
		pow <<= 1
	}
	c.sets = pow
	c.setMask = uint32(pow - 1)
	for (c.sets >> c.groupShift) > SetGroups {
		c.groupShift++
	}
	c.lines = make([]line, c.sets*cfg.Assoc)
	return c, nil
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets (a power of two).
func (c *Cache) Sets() int { return c.sets }

// set maps a block tag (SPARC instruction address) to its set index.
func (c *Cache) set(tag uint32) int { return int((tag >> 2) & c.setMask) }

// group maps a set index to its set-group bucket.
func (c *Cache) group(set int) int { return set >> c.groupShift }

// Lookup finds the block tagged with (addr, cwp). The window pointer is
// part of the tag: the physical register addresses recorded in a block are
// only valid at the window depth the block was scheduled at (see DESIGN.md
// §5). It counts a hit or miss.
func (c *Cache) Lookup(addr uint32, cwp uint8) (Entry, bool) {
	ent, _, ok := c.LookupLine(addr, cwp)
	return ent, ok
}

// LookupLine is Lookup returning also the index of the hit line (NoLine
// on a miss), so the machine can record the block's lowered form on it
// (SetLowered).
func (c *Cache) LookupLine(addr uint32, cwp uint8) (Entry, int32, bool) {
	set := c.set(addr)
	g := c.group(set)
	c.SetLookups[g]++
	base := set * c.cfg.Assoc
	for i := 0; i < c.cfg.Assoc; i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == addr && l.cwp == cwp {
			c.clock++
			l.lru = c.clock
			c.Hits++
			c.SetHits[g]++
			return l.ent, int32(base + i), true
		}
	}
	c.Misses++
	if c.tel != nil {
		c.tel.CacheMiss(telemetry.EvVCacheMiss, addr)
	}
	return Entry{}, NoLine, false
}

// Probe is Lookup without statistics, for callers that only test presence.
func (c *Cache) Probe(addr uint32, cwp uint8) (Entry, bool) {
	base := c.set(addr) * c.cfg.Assoc
	for i := 0; i < c.cfg.Assoc; i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == addr && l.cwp == cwp {
			return l.ent, true
		}
	}
	return Entry{}, false
}

// Save stores a block and its lowered form, nil when the block has not
// been lowered yet, replacing the LRU way of its set (or an existing
// block with the same tag).
func (c *Cache) Save(b *sched.Block, low *vliw.LoweredBlock) {
	c.Stores++
	c.clock++
	base := c.set(b.Tag) * c.cfg.Assoc
	victim := base
	for i := 0; i < c.cfg.Assoc; i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == b.Tag && l.cwp == b.EntryCWP {
			victim = base + i
			break
		}
		if !c.lines[victim].valid {
			continue
		}
		if !l.valid || l.lru < c.lines[victim].lru {
			victim = base + i
		}
	}
	if v := &c.lines[victim]; !v.valid {
		c.used = append(c.used, victim)
	} else if v.tag != b.Tag || v.cwp != b.EntryCWP {
		c.Replaced++
		c.SetEvictions[c.group(c.set(b.Tag))]++
		if c.tel != nil {
			c.tel.BlockEvicted(v.tag)
		}
	}
	ent := Entry{Blk: b, Low: low}
	if c.tel != nil {
		ent.Prof = c.tel.Profile(b.Tag)
	}
	c.lines[victim] = line{valid: true, tag: b.Tag, cwp: b.EntryCWP, ent: ent, lru: c.clock}
}

// SetLowered records low as the lowered form of the block in line, if
// the line still holds b. The machine lowers a block when it enters it,
// and a save between the probe hit and the entry may have replaced the
// line; then low is not recorded.
func (c *Cache) SetLowered(line int32, b *sched.Block, low *vliw.LoweredBlock) {
	if l := &c.lines[line]; l.valid && l.ent.Blk == b {
		l.ent.Low = low
	}
}

// Invalidate drops the block tagged (addr, cwp) (paper §3.11: aliasing
// exceptions invalidate the faulting block).
func (c *Cache) Invalidate(addr uint32, cwp uint8) {
	base := c.set(addr) * c.cfg.Assoc
	for i := 0; i < c.cfg.Assoc; i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == addr && l.cwp == cwp {
			l.valid = false
			c.Invalidats++
			c.SetInvalidations[c.group(c.set(addr))]++
			if c.tel != nil {
				c.tel.BlockInvalidated(addr)
			}
		}
	}
}

// Reset clears the cache.
func (c *Cache) Reset() {
	c.Drain(nil)
}

// Drain clears the cache like Reset, handing every valid entry to fn (when
// non-nil) before it is dropped, so callers can recycle block storage —
// the machine pool returns drained blocks to the scheduler's block pool.
func (c *Cache) Drain(fn func(Entry)) {
	for _, i := range c.used {
		l := &c.lines[i]
		if fn != nil && l.valid {
			fn(l.ent)
		}
		*l = line{}
	}
	c.used = c.used[:0]
	c.clock = 0
	c.Hits, c.Misses, c.Stores, c.Replaced, c.Invalidats = 0, 0, 0, 0, 0
	c.SetLookups = [SetGroups]uint64{}
	c.SetHits = [SetGroups]uint64{}
	c.SetEvictions = [SetGroups]uint64{}
	c.SetInvalidations = [SetGroups]uint64{}
}

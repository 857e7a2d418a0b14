package mem

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestMemoryRoundTrip(t *testing.T) {
	m := NewMemory()
	m.Map(0x1000, 0x100)
	f := func(off uint16, v uint32) bool {
		addr := 0x1000 + uint32(off%0xF0)
		if err := m.Write(addr, v, 4); err != nil {
			return false
		}
		got, err := m.Read(addr, 4)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryBigEndian(t *testing.T) {
	m := NewMemory()
	m.Map(0, 16)
	if err := m.WriteWord(0, 0x11223344); err != nil {
		t.Fatal(err)
	}
	b0, _ := m.ByteAt(0)
	b3, _ := m.ByteAt(3)
	if b0 != 0x11 || b3 != 0x44 {
		t.Fatalf("endianness: %#x %#x", b0, b3)
	}
	h, _ := m.Read(2, 2)
	if h != 0x3344 {
		t.Fatalf("half = %#x", h)
	}
}

func TestMemoryFaults(t *testing.T) {
	m := NewMemory()
	if _, err := m.Read(0xdead0000, 4); err == nil {
		t.Error("read of unmapped memory should fault")
	}
	if err := m.Write(0xdead0000, 1, 1); err == nil {
		t.Error("write of unmapped memory should fault")
	}
	var fe *FaultError
	_, err := m.Read(0x1234, 1)
	if fe, _ = err.(*FaultError); fe == nil || fe.Addr != 0x1234 {
		t.Errorf("fault error: %v", err)
	}
}

func TestMemoryCrossPage(t *testing.T) {
	m := NewMemory()
	m.Map(0xFFC, 8) // spans a 4K page boundary
	if err := m.WriteWord(0xFFE, 0xAABBCCDD); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadWord(0xFFE)
	if err != nil || v != 0xAABBCCDD {
		t.Fatalf("cross-page: %#x %v", v, err)
	}
}

// TestMapTopOfAddressSpace: a range that ends at or past the top of the
// 32-bit address space maps up to the last page and does not wrap to
// page 0.
func TestMapTopOfAddressSpace(t *testing.T) {
	for _, r := range []struct{ addr, size uint32 }{
		{0xFFFFF000, pageSize},
		{0xFFFFFFF0, 0x20},
		{0xFFFFE010, 0x2000},
	} {
		m := NewMemory()
		m.Map(r.addr, r.size)
		if !m.Mapped(0xFFFFFFFF) || !m.Mapped(r.addr) || m.Mapped(0) {
			t.Errorf("Map(%#x, %#x): last page mapped %v, first %v, page 0 %v; want true, true, false",
				r.addr, r.size, m.Mapped(0xFFFFFFFF), m.Mapped(r.addr), m.Mapped(0))
		}
	}
}

func TestSnapshotEqualFirstDiff(t *testing.T) {
	m := NewMemory()
	m.LoadBytes(0x2000, []byte{1, 2, 3, 4})
	c := m.Snapshot()
	if addr, diff := m.FirstDiff(c); diff {
		t.Fatalf("snapshot not equal: FirstDiff = %#x", addr)
	}
	if err := c.SetByte(0x2002, 9); err != nil {
		t.Fatal(err)
	}
	addr, diff := m.FirstDiff(c)
	if !diff || addr != 0x2002 {
		t.Fatalf("FirstDiff = %#x, %v", addr, diff)
	}
	// Zero page vs unmapped page compare equal.
	z := NewMemory()
	z.Map(0x5000, 16)
	if addr, diff := z.FirstDiff(NewMemory()); diff {
		t.Fatalf("zero page should equal unmapped: FirstDiff = %#x", addr)
	}
	if addr, diff := NewMemory().FirstDiff(z); diff {
		t.Fatalf("unmapped should equal zero page: FirstDiff = %#x", addr)
	}
}

// refFirstDiff is the byte-at-a-time definition of FirstDiff: every byte
// of every page mapped on either side, in address order, with unmapped
// bytes reading zero.
func refFirstDiff(a, b *Memory) (uint32, bool) {
	var pns []uint32
	for _, m := range []*Memory{a, b} {
		for pn := range m.pages {
			pns = append(pns, pn)
		}
	}
	slices.Sort(pns)
	for _, pn := range slices.Compact(pns) {
		for i := uint32(0); i < pageSize; i++ {
			addr := pn<<pageBits | i
			if byteOrZero(a, addr) != byteOrZero(b, addr) {
				return addr, true
			}
		}
	}
	return 0, false
}

func byteOrZero(m *Memory, addr uint32) byte {
	b, err := m.ByteAt(addr)
	if err != nil {
		return 0 // unmapped
	}
	return b
}

// TestFirstDiffMatchesByteReference holds FirstDiff to the byte-at-a-time
// reference over random page sets: pages mapped on both sides, equal or
// not; pages mapped on one side only, zero or not; differences at page
// offsets 0, 4095 and in between; and several differing pages, where the
// lowest address must win. Both argument orders are checked.
func TestFirstDiffMatchesByteReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	offsets := func() uint32 {
		switch rng.Intn(3) {
		case 0:
			return 0
		case 1:
			return pageSize - 1
		}
		return 1 + uint32(rng.Intn(pageSize-2))
	}
	set := func(m *Memory, addr uint32, v byte) {
		if err := m.SetByte(addr, v); err != nil {
			t.Fatal(err)
		}
	}
	differing := 0
	for trial := 0; trial < 300; trial++ {
		a, b := NewMemory(), NewMemory()
		// Page numbers from a small range, so pages collide and the
		// lowest differing page is often not the first one visited, plus
		// the top of the address space.
		for n := rng.Intn(10); n >= 0; n-- {
			pn := uint32(rng.Intn(24))
			if rng.Intn(8) == 0 {
				pn = 0xFFFFF - uint32(rng.Intn(2))
			}
			addr := pn << pageBits
			fill := byte(rng.Intn(256))
			switch kind := rng.Intn(6); kind {
			case 0, 1: // both sides, equal contents, then perhaps differing bytes
				for _, m := range []*Memory{a, b} {
					m.Map(addr, pageSize)
					for i := uint32(0); i < pageSize; i += 97 {
						set(m, addr+i, fill^byte(i))
					}
				}
				if kind == 1 {
					for k := rng.Intn(3); k >= 0; k-- {
						off := offsets()
						set(b, addr+off, byteOrZero(b, addr+off)^byte(1+rng.Intn(255)))
					}
				}
			case 2, 3, 4, 5: // one side only, zero or with nonzero bytes
				m := a
				if kind%2 == 1 {
					m = b
				}
				m.Map(addr, pageSize)
				if kind >= 4 {
					for k := rng.Intn(3); k >= 0; k-- {
						set(m, addr+offsets(), 1+byte(rng.Intn(255)))
					}
				}
			}
		}
		want, wantOK := refFirstDiff(a, b)
		if wantOK {
			differing++
		}
		for _, p := range [][2]*Memory{{a, b}, {b, a}} {
			got, gotOK := p[0].FirstDiff(p[1])
			if got != want || gotOK != wantOK {
				t.Fatalf("trial %d: FirstDiff = %#x, %v; reference %#x, %v", trial, got, gotOK, want, wantOK)
			}
		}
	}
	if differing < 100 || differing > 290 {
		t.Fatalf("%d of 300 trials differ; the generator should give a mix", differing)
	}
}

func TestCacheHitMiss(t *testing.T) {
	c, err := NewCache(CacheConfig{SizeBytes: 1024, LineBytes: 32, Assoc: 2, MissPenalty: 8})
	if err != nil {
		t.Fatal(err)
	}
	if p := c.Access(0x100); p != 8 {
		t.Fatalf("first access penalty %d", p)
	}
	if p := c.Access(0x104); p != 0 {
		t.Fatalf("same-line hit penalty %d", p)
	}
	if p := c.Access(0x100 + 32); p != 8 {
		t.Fatalf("next line penalty %d", p)
	}
	if c.Misses != 2 || c.Accesses != 3 {
		t.Fatalf("stats: %d/%d", c.Misses, c.Accesses)
	}
	if r := c.MissRate(); r < 0.6 || r > 0.7 {
		t.Fatalf("miss rate %f", r)
	}
}

func TestCacheLRU(t *testing.T) {
	// 2 sets x 2 ways x 32B lines = 128 bytes. Addresses mapping to set 0:
	// multiples of 64.
	c, err := NewCache(CacheConfig{SizeBytes: 128, LineBytes: 32, Assoc: 2, MissPenalty: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, b, d := uint32(0), uint32(64), uint32(128)
	c.Access(a) // miss
	c.Access(b) // miss
	c.Access(a) // hit, a most recent
	c.Access(d) // miss, evicts b (LRU)
	if p := c.Access(a); p != 0 {
		t.Error("a should still hit")
	}
	if p := c.Access(b); p != 1 {
		t.Error("b should have been evicted")
	}
}

func TestCachePerfect(t *testing.T) {
	c, err := NewCache(CacheConfig{Perfect: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 100; i++ {
		if c.Access(i*4096) != 0 {
			t.Fatal("perfect cache missed")
		}
	}
	if c.Misses != 0 {
		t.Fatal("perfect cache counted misses")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c, err := NewCache(CacheConfig{SizeBytes: 1024, LineBytes: 32, Assoc: 2, MissPenalty: 5})
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0x200)
	c.Invalidate(0x200, 4)
	if p := c.Access(0x200); p != 5 {
		t.Error("invalidated line should miss")
	}
}

func TestCacheConfigValidation(t *testing.T) {
	bad := []CacheConfig{
		{SizeBytes: 1024, LineBytes: 33, Assoc: 1},
		{SizeBytes: 1024, LineBytes: 32, Assoc: 0},
		{SizeBytes: 16, LineBytes: 32, Assoc: 1},
	}
	for _, cfg := range bad {
		if _, err := NewCache(cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
}

func TestCacheReset(t *testing.T) {
	c, _ := NewCache(CacheConfig{SizeBytes: 1024, LineBytes: 32, Assoc: 1, MissPenalty: 3})
	c.Access(0x40)
	c.Reset()
	if c.Accesses != 0 || c.Misses != 0 {
		t.Fatal("stats not reset")
	}
	if p := c.Access(0x40); p != 3 {
		t.Fatal("contents not reset")
	}
}

func TestMemoryRecycle(t *testing.T) {
	m := NewMemory()
	m.Map(0x1000, 0x100)
	if err := m.WriteWord(0x1000, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	m.Recycle()

	// A recycled memory faults exactly like a fresh one.
	if _, err := m.Read(0x1000, 4); err == nil {
		t.Error("read of recycled (unmapped) page should fault")
	}
	var fe *FaultError
	_, err := m.Read(0x1000, 1)
	if fe, _ = err.(*FaultError); fe == nil || fe.Addr != 0x1000 {
		t.Errorf("fault error after recycle: %v", err)
	}
	if m.Mapped(0x1000) {
		t.Error("recycled page still reports mapped")
	}

	// Remapping reuses the freed page, and it must come back zeroed:
	// leaking a previous run's bytes would be a cross-program information
	// channel and a determinism hole.
	m.Map(0x1000, 0x100)
	got, err := m.ReadWord(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("recycled page not zeroed: read %#08x", got)
	}
}

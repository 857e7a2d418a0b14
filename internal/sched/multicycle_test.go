package sched

import (
	"testing"

	"dtsvliw/internal/isa"
)

// cfgLat builds a wide scheduler with the given load latency.
func cfgLat(loadLat int) Config {
	return Config{Width: 8, Height: 8, NWin: 8, Latencies: isa.Latencies{LoadLatency: loadLat}}
}

// TestLatencyHorizonSeparation: a consumer of an L-cycle load lands at
// least L elements below it.
func TestLatencyHorizonSeparation(t *testing.T) {
	src := `
	.data 0x40000
v:	.word 7
	.text 0x1000
start:
	set v, %l0
	ld [%l0], %o1
	add %o1, 1, %o2
	ta 0
`
	for _, lat := range []int{1, 2, 3, 4} {
		u, _, _ := feed(t, cfgLat(lat), src, 4)
		var ldElem, addElem = -1, -1
		for i, e := range u.elems {
			for _, s := range e.slots {
				if s == nil || s.IsCopy {
					continue
				}
				switch s.Inst.Op.String() {
				case "ld":
					ldElem = i
				case "add":
					if s.Inst.Rd == 10 { // %o2
						addElem = i
					}
				}
			}
		}
		if ldElem < 0 || addElem < 0 {
			t.Fatalf("lat %d: ops missing\n%s", lat, u.Dump())
		}
		if addElem-ldElem < lat {
			t.Fatalf("lat %d: consumer only %d elements below load\n%s",
				lat, addElem-ldElem, u.Dump())
		}
	}
}

// TestLatencyPaddingElements: insertion grows the list enough to respect
// the horizon even from the tail.
func TestLatencyPaddingElements(t *testing.T) {
	src := `
	.data 0x40000
v:	.word 7
	.text 0x1000
start:
	set v, %l0
	ld [%l0], %o1
	add %o1, 1, %o2
	ta 0
`
	u1, _, _ := feed(t, cfgLat(1), src, 4)
	u4, _, _ := feed(t, cfgLat(4), src, 4)
	if u4.Len() <= u1.Len() {
		t.Fatalf("latency 4 should deepen the list: %d vs %d elements",
			u4.Len(), u1.Len())
	}
}

// TestIndependentsFillLatencyShadow: instructions independent of the load
// still pack beside or under it — latency delays only true dependents.
func TestIndependentsFillLatencyShadow(t *testing.T) {
	src := `
	.data 0x40000
v:	.word 7
	.text 0x1000
start:
	set v, %l0
	ld [%l0], %o1
	add %g1, 1, %g2
	add %g3, 1, %g4
	ta 0
`
	u, _, _ := feed(t, cfgLat(4), src, 5)
	// The two independent adds must not be pushed below the load's
	// latency shadow: they share the load's element (entered at tail,
	// moved up).
	var ldElem, addMax int
	for i, e := range u.elems {
		for _, s := range e.slots {
			if s == nil || s.IsCopy {
				continue
			}
			if s.Inst.Op.String() == "ld" {
				ldElem = i
			}
			if s.Inst.Op.String() == "add" {
				if i > addMax {
					addMax = i
				}
			}
		}
	}
	if addMax > ldElem {
		t.Fatalf("independent adds pushed below the load (%d > %d)\n%s",
			addMax, ldElem, u.Dump())
	}
}

// TestLatencyWAWSeparation: a younger writer of a multicycle load's
// destination must land where the engine commits it at or after the
// load's delayed writeback (which a commit-order tie resolves in the
// younger value's favour) — at least latency-1 elements below the load.
// Regression: the write-ordering check only looked at the tail element,
// so the in-flight load clobbered the younger value.
func TestLatencyWAWSeparation(t *testing.T) {
	src := `
	.data 0x40000
v:	.word 7
	.text 0x1000
start:
	set v, %l0
	ld [%l0], %o1
	srl %g1, 2, %o1
	ta 0
`
	for _, lat := range []int{2, 3, 4} {
		u, _, _ := feed(t, cfgLat(lat), src, 4)
		var ldSlot *Slot
		ldElem := -1
		for i, e := range u.elems {
			for _, s := range e.slots {
				if s != nil && !s.IsCopy && s.Inst.Op.String() == "ld" {
					ldSlot, ldElem = s, i
				}
			}
		}
		if ldSlot == nil {
			t.Fatalf("lat %d: load missing\n%s", lat, u.Dump())
		}
		// The architectural writeback of the srl is either the srl itself
		// or, if it was split on the way up, the copy left behind.
		wrElem := -1
		for i, e := range u.elems {
			for _, s := range e.slots {
				if s == nil || s == ldSlot {
					continue
				}
				if overlapAny(s.writes, ldSlot.writes) && i > wrElem {
					wrElem = i
				}
			}
		}
		if wrElem < 0 {
			t.Fatalf("lat %d: no architectural writer of the load's destination\n%s", lat, u.Dump())
		}
		if wrElem-ldElem < lat-1 {
			t.Fatalf("lat %d: younger writer only %d elements below the load; the delayed writeback would clobber it\n%s",
				lat, wrElem-ldElem, u.Dump())
		}
	}
}

// TestFlushOnLatencyOverflow: when padding would exceed the block height,
// the block flushes and the consumer starts a new block.
func TestFlushOnLatencyOverflow(t *testing.T) {
	src := `
	.data 0x40000
v:	.word 7
	.text 0x1000
start:
	set v, %l0
	ld [%l0], %o1
	add %o1, 1, %o2
	ta 0
`
	cfg := Config{Width: 8, Height: 2, NWin: 8, Latencies: isa.Latencies{LoadLatency: 6}}
	_, blocks, _ := feed(t, cfg, src, 4)
	if len(blocks) == 0 {
		t.Fatal("expected a flush when latency padding exceeds block height")
	}
}

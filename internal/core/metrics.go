package core

import (
	"dtsvliw/internal/metrics"
	"dtsvliw/internal/vcache"
)

// metricsFlushCycles is the cycle budget between periodic publisher
// flushes. Both dispatch loops return to Run when it runs out (see
// Machine.stopAt), so a live scrape is at most this many simulated
// cycles stale, plus the one step or long instruction that crossed it;
// at ~10-40ns per simulated cycle that is well under a millisecond of
// wall clock, while the per-iteration cost is one compare.
const metricsFlushCycles = 1 << 14

// setGroupLabels are the per-set-group label values, two digits so the
// snapshot's lexicographic series order matches numeric order.
var setGroupLabels = [vcache.SetGroups]string{
	"00", "01", "02", "03", "04", "05", "06", "07",
	"08", "09", "10", "11", "12", "13", "14", "15",
}

// metricsPublisher flushes deltas of the machine's Stats into the shared
// atomic registry instruments, one instrument per counterTable row.
// Flushes happen at two coarse synchronisation points only — every
// metricsFlushCycles cycles and the stat harvest on every Run return —
// so the per-instruction hot paths stay exactly as they were:
// a scrape is never more than about one flush interval stale, and
// exactly equal to Stats at quiescence. Per-handover flushing was
// measured and rejected: short traces hand over every few hundred
// cycles, and a flush walks the whole table, which showed up as
// percent-level ns/instr overhead — the mode gauge lagging a flush
// interval is the cheaper trade. Instruments are resolved once at
// construction (idempotently: machines sharing a registry share them),
// and flush allocates nothing (guarded by a test), so pooled machines
// publish for free in the steady state.
type metricsPublisher struct {
	counters []*metrics.Counter                   // one per counterTable row
	groups   [][vcache.SetGroups]*metrics.Counter // one per setGroupTable row
	last     Stats                                // the values published so far
	blockLIs *metrics.Histogram
	running  *metrics.Gauge
	inVLIW   *metrics.Gauge
	vliwMode bool // this machine's contribution to inVLIW
}

func newMetricsPublisher(r *metrics.Registry) *metricsPublisher {
	p := &metricsPublisher{
		counters: make([]*metrics.Counter, len(counterTable)),
		groups:   make([][vcache.SetGroups]*metrics.Counter, len(setGroupTable)),
		blockLIs: r.Histogram("dtsvliw_machine_saved_block_lis", "long instructions per saved block", []uint64{1, 2, 4, 8, 16, 32, 64}),
		running:  r.Gauge("dtsvliw_machines_running", "machines currently inside Run"),
		inVLIW:   r.Gauge("dtsvliw_machines_in_vliw_mode", "machines currently executing on the VLIW Engine"),
	}
	for i, row := range counterTable {
		p.counters[i] = r.Counter(row.name, row.help)
	}
	for i, row := range setGroupTable {
		vec := r.CounterVec(row.name, row.help, "group")
		for g := range p.groups[i] {
			p.groups[i][g] = vec.With(setGroupLabels[g])
		}
	}
	return p
}

// flush publishes what changed in s since the previous flush, and
// whether the machine is executing on the VLIW Engine.
func (p *metricsPublisher) flush(s *Stats, inVLIW bool) {
	for i, row := range counterTable {
		if d := row.get(s) - row.get(&p.last); d != 0 {
			p.counters[i].Add(d)
		}
	}
	for i, row := range setGroupTable {
		cur, last := row.get(s), row.get(&p.last)
		for g, c := range p.groups[i] {
			if d := cur[g] - last[g]; d != 0 {
				c.Add(d)
			}
		}
	}
	p.last = *s
	p.setInVLIW(inVLIW)
}

// setInVLIW sets this machine's contribution to the in-VLIW-mode gauge.
func (p *metricsPublisher) setInVLIW(on bool) {
	if on == p.vliwMode {
		return
	}
	if on {
		p.inVLIW.Add(1)
	} else {
		p.inVLIW.Add(-1)
	}
	p.vliwMode = on
}

// reset returns the publisher to its post-construction state after
// Machine.Reset zeroed Stats: publishing restarts from zero
// (already-published totals stay in the registry — counters are
// cumulative across a pooled machine's lifetimes) and the mode gauge
// contribution is withdrawn.
func (p *metricsPublisher) reset() {
	p.last = Stats{}
	p.setInVLIW(false)
}

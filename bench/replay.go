package bench

import (
	"fmt"
	"runtime"
	"time"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/asm"
	"dtsvliw/internal/core"
	"dtsvliw/internal/mem"
	"dtsvliw/internal/progen"
	"dtsvliw/internal/sched"
	"dtsvliw/internal/vcache"
	"dtsvliw/internal/vliw"
)

// capBlock is a deep copy of one saved block's scheduler input and the
// shape the scheduler gave it.
type capBlock struct {
	trace        []sched.Completed
	tag          uint32
	cwp          uint8
	nba          sched.LongAddr
	endSeq       uint64
	numLIs       int
	validOps     int
	conservative bool
}

// capture is one job's scheduler input stream, in save order, with the
// layer configurations needed to replay it.
type capture struct {
	job    string
	sched  sched.Config
	vcache vcache.Config
	nwin   int
	lower  bool // false when the machine runs the interpreted engine
	blocks []capBlock
}

// captureJobs runs the job-list prefix once, untimed, with save-time
// verification on (which records each block's sequential trace), and
// deep-copies every saved block in the machine's block hook.
func (s *suite) captureJobs(res *Result) ([]*capture, *statsTotals) {
	var caps []*capture
	st := &statsTotals{}
	for _, j := range s.jobs[:min(s.w.captureJobs, len(s.jobs))] {
		res.Attempted++
		c, stats, err := captureJob(j)
		if err != nil {
			res.fail(fmt.Errorf("capture of %s: %w", j.name, err))
			continue
		}
		st.add(stats)
		caps = append(caps, c)
	}
	return caps, st
}

func captureJob(j *job) (*capture, *core.Stats, error) {
	p := j.prog
	if p == nil {
		var err error
		if p, err = asm.Assemble(progen.Generate(progen.ShapeParams(j.shape, j.seed))); err != nil {
			return nil, nil, err
		}
	}
	cfg := j.cfg
	cfg.VerifyBlocks = true
	st := arch.NewState(cfg.NWin, mem.NewMemory())
	load(st, p)
	m, err := core.NewMachine(cfg, st)
	if err != nil {
		return nil, nil, err
	}
	c := &capture{job: j.name, vcache: cfg.VCacheConfig(), nwin: cfg.NWin, lower: !cfg.InterpretedEngine}
	m.BlockHook = func(b *sched.Block) {
		c.blocks = append(c.blocks, capBlock{
			trace: append([]sched.Completed(nil), b.Trace...),
			tag:   b.Tag, cwp: b.EntryCWP, nba: b.NBA, endSeq: b.EndSeq,
			numLIs: b.NumLIs, validOps: b.ValidOps, conservative: b.Conservative,
		})
	}
	if err := m.Run(); err != nil {
		return nil, nil, err
	}
	c.sched = m.Scheduler().Config()
	c.sched.RecordTrace = false
	stats := m.Stats
	return c, &stats, nil
}

// reading is one sample of a meter: a monotonic clock, or the heap's
// cumulative allocation counters.
type reading struct {
	ns, allocs, bytes uint64
}

type meter func() reading

var clockEpoch = time.Now()

func clock() reading { return reading{ns: uint64(time.Since(clockEpoch))} }

// heap reads exact allocation counters; ReadMemStats stops the world, so
// only the allocation pass uses it.
func heap() reading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return reading{allocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// cost accumulates one layer call's readings.
type cost struct {
	calls uint64
	sum   reading
}

func (c *cost) add(calls int, a, b reading) {
	c.calls += uint64(calls)
	c.sum.ns += b.ns - a.ns
	c.sum.allocs += b.allocs - a.allocs
	c.sum.bytes += b.bytes - a.bytes
}

// perCall returns the per-call average of one reading field.
func (c *cost) perCall(field func(reading) uint64) float64 {
	if c.calls == 0 {
		return 0
	}
	return float64(field(c.sum)) / float64(c.calls)
}

type replayCost struct {
	insert, flush, lower, save cost
}

// replayJob feeds one capture through fresh layer instances: a new
// Scheduler Unit with trace recording off, then vliw.Lower on every
// replayed block and vcache.Save into an emptied cache, metering each
// call. It returns the number of replayed blocks whose shape differs from
// the capture.
//
// A captured block was closed either by an external Flush or inside the
// Insert of the next block's first instruction, with that instruction's
// address and sequence number as NBA and end. When the open list already
// has the captured height, an explicit Flush with the captured NBA and end
// builds the same block either way. When it is shorter, Insert closed the
// block after adding latency-padding elements for the incoming
// instruction, so the block is left open for the next block's first
// Insert to close, as in the capture.
func replayJob(c *capture, vc *vcache.Cache, read meter, rc *replayCost) (int, error) {
	u, err := sched.New(c.sched)
	if err != nil {
		return 0, err
	}
	vc.Reset()
	mismatch := 0
	out := make([]*sched.Block, 0, len(c.blocks))
	// closed records a block the replay produced: the next captured block
	// in save order is the one it must match.
	closed := func(b *sched.Block, err error) {
		i := len(out)
		if b == nil || err != nil || i >= len(c.blocks) {
			mismatch++
			return
		}
		cb := &c.blocks[i]
		if b.Tag != cb.tag || b.NumLIs != cb.numLIs || b.ValidOps != cb.validOps || b.EndSeq != cb.endSeq {
			mismatch++
		}
		out = append(out, b)
	}
	for i := range c.blocks {
		cb := &c.blocks[i]
		if cb.conservative {
			u.MarkConservative(cb.tag, cb.cwp)
		}
		r0 := read()
		for _, in := range cb.trace {
			if b, err := u.Insert(in); b != nil || err != nil {
				closed(b, err)
			}
		}
		r1 := read()
		rc.insert.add(len(cb.trace), r0, r1)
		if u.Len() == cb.numLIs || i == len(c.blocks)-1 {
			b := u.Flush(cb.nba.Addr, cb.endSeq)
			r2 := read()
			rc.flush.add(1, r1, r2)
			closed(b, nil)
		}
	}
	mismatch += len(c.blocks) - len(out)

	lows := make([]*vliw.LoweredBlock, len(out))
	r0 := read()
	if c.lower {
		for i, b := range out {
			lows[i] = vliw.Lower(b, c.nwin)
		}
	}
	r1 := read()
	for i, b := range out {
		vc.Save(b, lows[i])
	}
	r2 := read()
	if c.lower {
		rc.lower.add(len(out), r0, r1)
	}
	rc.save.add(len(out), r1, r2)
	return mismatch, nil
}

// replayReport is the outcome of the layer replays.
type replayReport struct {
	mismatch []int // per capture
	// timing holds one replayCost per timed pass over every capture.
	timing []replayCost
	allocs replayCost
}

// replayAll replays every capture: one allocation pass (which also
// counts mismatches), then timed passes until budget is spent.
func replayAll(caps []*capture, budget time.Duration) (*replayReport, error) {
	rep := &replayReport{mismatch: make([]int, len(caps))}
	caches := make(map[vcache.Config]*vcache.Cache)
	for _, c := range caps {
		if caches[c.vcache] == nil {
			vc, err := vcache.New(c.vcache)
			if err != nil {
				return nil, err
			}
			caches[c.vcache] = vc
		}
	}
	for i, c := range caps {
		n, err := replayJob(c, caches[c.vcache], heap, &rep.allocs)
		if err != nil {
			return nil, fmt.Errorf("replay of %s: %w", c.job, err)
		}
		rep.mismatch[i] = n
	}
	deadline := time.Now().Add(budget)
	for len(rep.timing) == 0 || time.Now().Before(deadline) {
		var rc replayCost
		for _, c := range caps {
			if _, err := replayJob(c, caches[c.vcache], clock, &rc); err != nil {
				return nil, err
			}
		}
		rep.timing = append(rep.timing, rc)
	}
	return rep, nil
}

// metrics reports the replay costs, with times scaled by f to the
// reference host speed.
func (r *replayReport) metrics(f float64) []Metric {
	ns := func(sel func(*replayCost) *cost) float64 {
		v := make([]float64, len(r.timing))
		for i := range r.timing {
			v[i] = sel(&r.timing[i]).perCall(func(x reading) uint64 { return x.ns })
		}
		return f * median(v)
	}
	allocs := func(c *cost) float64 { return c.perCall(func(x reading) uint64 { return x.allocs }) }
	bytes := func(c *cost) float64 { return c.perCall(func(x reading) uint64 { return x.bytes }) }
	mismatch := 0
	for _, n := range r.mismatch {
		mismatch += n
	}
	return []Metric{
		{"sched.insert_ns", ns(func(c *replayCost) *cost { return &c.insert }), "ns/call"},
		{"sched.insert_allocs", allocs(&r.allocs.insert), "alloc/call"},
		{"sched.insert_bytes", bytes(&r.allocs.insert), "B/call"},
		{"sched.flush_ns", ns(func(c *replayCost) *cost { return &c.flush }), "ns/call"},
		{"vliw.lower_ns", ns(func(c *replayCost) *cost { return &c.lower }), "ns/call"},
		{"vliw.lower_allocs", allocs(&r.allocs.lower), "alloc/call"},
		{"vliw.lower_bytes", bytes(&r.allocs.lower), "B/call"},
		{"vcache.save_ns", ns(func(c *replayCost) *cost { return &c.save }), "ns/call"},
		{"vcache.save_allocs", allocs(&r.allocs.save), "alloc/call"},
		{"sched.replay_mismatch", float64(mismatch), "count"},
	}
}

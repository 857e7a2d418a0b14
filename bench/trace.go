package bench

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"time"

	"dtsvliw/internal/core"
)

// Span is one timed interval around a call the benchmark makes into a
// layer. Spans nest: a span's parent encloses it. Setup spans carry job
// -1; a job's spans carry its job-list index.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Name    string `json:"name"`
	Job     int    `json:"job"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run. A nil tracer records
// nothing, which is how untraced runs and phases switch spans off.
type tracer struct {
	epoch time.Time
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, jobID int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: jobID,
		StartNS: int64(time.Since(t.epoch))})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNS = int64(time.Since(t.epoch))
}

// spanNames are the spans whose median duration the traced run reports:
// the ones every workload opens, so no reported time is a constant 0. The
// workload-specific steps (setup.generate, setup.assemble,
// setup.reference, job.generate, job.certify) are in the written spans and
// in the setup.build and job totals.
var spanNames = []string{"setup.build", "setup.context", "setup.warmup", "job", "job.run", "job.validate"}

// profileHz is the CPU-profile sampling rate requested for the traced
// phase: the default 100 Hz yields too few samples in a phase of a few
// seconds to resolve the small layers. The operating system may deliver
// fewer (a 250 Hz tick caps it at 250), so per-instruction times come
// from the process CPU time, not from the sample count. runtime/pprof prints a
// one-line warning when it finds the rate already set; the rate set here
// stays in force.
const profileHz = 1000

// traced is the traced run: an untraced phase and a longer traced one
// (their sim_mips ratio is the tracing overhead), a CPU profile of the
// traced phase folded by layer, the simulated statistics of the captured
// jobs, and the layer replays.
func (s *suite) traced(res *Result, d time.Duration, rng *rand.Rand) error {
	tr := s.tr
	s.tr = nil
	plain := s.timed(d*3/10, rng)
	plain.account(res)

	s.tr = tr
	var buf bytes.Buffer
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	cpu0 := cpuTime()
	ph := s.timed(d*6/10, rng)
	cpu := cpuTime() - cpu0
	pprof.StopCPUProfile()
	s.tr = nil
	ph.account(res)
	res.Profile = buf.Bytes()
	prof, err := foldProfile(res.Profile)
	if err != nil {
		return err
	}

	caps, st := s.captureJobs(res)
	rep, err := replayAll(caps, d/10)
	if err != nil {
		return err
	}
	for i, c := range caps {
		if rep.mismatch[i] > 0 {
			res.fail(fmt.Errorf("replay of %s: %d of %d blocks differ from the capture",
				c.job, rep.mismatch[i], len(c.blocks)))
		}
	}

	// Host times outside the timed passes are scaled by the run's median
	// calibration.
	s.cal.run()
	f := scale(median(s.cal.ns))
	for _, l := range layers {
		res.Metrics = append(res.Metrics, Metric{l + ".self_frac", prof.frac(l), "frac"})
	}
	// A layer's self time per instruction is its self_frac times this: the
	// process CPU time outside the calibration kernel per simulated
	// instruction.
	res.Metrics = append(res.Metrics,
		Metric{"profile.samples", float64(prof.total), "count"},
		Metric{"profile.cpu_ns_per_instr", f * float64(cpu) * prof.layerShare() / float64(ph.instrs), "ns/instr"})
	res.Metrics = append(res.Metrics, st.metrics()...)
	res.Metrics = append(res.Metrics, rep.metrics(f)...)
	for _, name := range spanNames {
		var ms []float64
		for _, sp := range tr.spans {
			if sp.Name == name {
				ms = append(ms, f*float64(sp.EndNS-sp.StartNS)/1e6)
			}
		}
		res.Metrics = append(res.Metrics, Metric{"span." + name + ".ms_p50", median(ms), "ms"})
	}
	overhead := 100 * (1 - median(ph.passMIPS)/median(plain.passMIPS))
	res.Metrics = append(res.Metrics, Metric{"trace.overhead_pct", overhead, "%"})
	return nil
}

// statsTotals sums the simulated statistics of the captured jobs.
type statsTotals struct {
	cycles, vliwCycles, drainStalls, retired, switches, blocksSaved   uint64
	inserted, flushedSlots, slotCapacity, vcHits, vcMisses, chainHits uint64
	unlinks, icAccesses, icMisses, dcAccesses, dcMisses, exceptions   uint64
}

func (t *statsTotals) add(st *core.Stats) {
	t.cycles += st.Cycles
	t.vliwCycles += st.VLIWCycles
	t.drainStalls += st.DrainStalls
	t.retired += st.Retired
	t.switches += st.Switches
	t.blocksSaved += st.BlocksSaved
	t.inserted += st.Sched.Inserted
	t.flushedSlots += st.Sched.FlushedSlots
	t.slotCapacity += st.Sched.BlocksFlushed * uint64(st.Sched.Width*st.Sched.Height)
	t.vcHits += st.VCacheHits
	t.vcMisses += st.VCacheMisses
	t.chainHits += st.VCacheChainHits
	t.unlinks += st.VCacheChainUnlinks
	t.icAccesses += st.ICacheAccesses
	t.icMisses += st.ICacheMisses
	t.dcAccesses += st.DCacheAccesses
	t.dcMisses += st.DCacheMisses
	t.exceptions += st.AliasingExceptions + st.OtherExceptions
}

func (t *statsTotals) metrics() []Metric {
	return []Metric{
		{"core.vliw_cycle_frac", ratio(t.vliwCycles, t.cycles), "frac"},
		{"core.switches_per_kinstr", 1e3 * ratio(t.switches, t.retired), "1/kinstr"},
		{"core.drain_stall_frac", ratio(t.drainStalls, t.cycles), "frac"},
		{"sched.inserted_per_instr", ratio(t.inserted, t.retired), "1/instr"},
		{"sched.blocks_per_kinstr", 1e3 * ratio(t.blocksSaved, t.retired), "1/kinstr"},
		{"sched.slot_util", ratio(t.flushedSlots, t.slotCapacity), "frac"},
		{"vcache.hit_rate", ratio(t.vcHits, t.vcHits+t.vcMisses), "frac"},
		{"vcache.chain_hit_rate", ratio(t.chainHits, t.vcHits), "frac"},
		{"vcache.unlinks_per_kinstr", 1e3 * ratio(t.unlinks, t.retired), "1/kinstr"},
		{"mem.icache_miss_rate", ratio(t.icMisses, t.icAccesses), "frac"},
		{"mem.dcache_miss_rate", ratio(t.dcMisses, t.dcAccesses), "frac"},
		{"vliw.exceptions_per_minstr", 1e6 * ratio(t.exceptions, t.retired), "1/Minstr"},
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

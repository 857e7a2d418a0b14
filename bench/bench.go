// Package bench is the repository's end-to-end benchmark. Each workload
// drives the simulator through the public API of its layer packages
// (workloads, progen, asm, core, oracle, progcheck, sched, vliw, vcache)
// and reports what a user pays: set-up time, host time per simulated
// instruction, job throughput, allocation and memory, with the simulated
// IPC and a digest of the simulated statistics beside them. A separate
// traced run reports where the host time goes, layer by layer.
//
// The benchmark does not import the experiment runners
// (internal/experiments), so a change to the experiment code cannot change
// what it measures.
package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"

	"dtsvliw/internal/core"
	"dtsvliw/internal/oracle"
)

// Options selects one benchmark run.
type Options struct {
	Workload string
	Seed     int64
	// Seconds is the length of the measured phase. The phase always
	// completes at least one pass over the whole job list.
	Seconds float64
	// Trace selects the traced run, which reports the per-layer metrics
	// instead of the end-to-end ones.
	Trace bool

	sz size
}

// size scales a run down for the smoke test; the zero value is the full
// benchmark.
type size struct {
	jobs       int    // cap on the progen workloads' job lists
	maxInstrs  uint64 // per-run instruction cap of the SPEC jobs
	setups     int    // set-ups per run
	calibIters int    // calibration kernel length
}

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 5

// Metric is one named measurement.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Host describes the machine a result was measured on.
type Host struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// Result is the outcome of one run.
type Result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Host     Host   `json:"host"`
	// Attempted and Failed count jobs; a failed job is a simulation error,
	// a wrong result, a run that does not reproduce its first outcome, or
	// (traced run) a captured job whose replay does not reproduce it.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Digest hashes the simulated statistics of every job in job-list
	// order; it changes only when simulated results change.
	Digest string `json:"sim_digest"`
	// HostSpeed is the calibration kernel's median speed relative to the
	// reference host; host times in Metrics are already scaled to the
	// reference (see calib.go).
	HostSpeed float64  `json:"host_speed"`
	Metrics   []Metric `json:"metrics"`
	Spans     []Span   `json:"spans,omitempty"`
	// Profile is the traced phase's CPU profile (runtime/pprof format).
	Profile []byte `json:"-"`
}

// maxErrors bounds the failure messages a result keeps.
const maxErrors = 5

func (r *Result) fail(err error) {
	r.Failed++
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, err.Error())
	}
}

// suite is a set-up workload: its job list and the warm machine state the
// jobs reuse.
type suite struct {
	w    *Workload
	seed int64
	sz   size
	tr   *tracer
	// buildSpan is the setup.build span the workload's build steps nest
	// under.
	buildSpan int

	jobs []*job
	pool *core.MachinePool    // machine jobs
	sc   *oracle.SweepContext // conformance jobs
	// first and ran hold each job's first outcome.
	first []outcome
	ran   []bool
	cal   *calibrator
}

// Run performs one benchmark run.
func Run(o Options) (*Result, error) {
	w, ok := WorkloadByName(o.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.Workload)
	}
	res := &Result{
		Workload: w.Name, Seed: o.Seed, Trace: o.Trace,
		Host: Host{
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
	}
	var tr *tracer
	if o.Trace {
		tr = newTracer()
	}
	setups := setupRuns
	if o.sz.setups > 0 {
		setups = o.sz.setups
	}
	// Each set-up is scaled by the calibrations on either side of it.
	cal := newCalibrator(o.sz.calibIters)
	before := cal.run()
	var s *suite
	setupS := make([]float64, setups)
	for i := range setupS {
		start := time.Now()
		var err error
		if s, err = setUp(w, o.Seed, o.sz, tr); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.Name, err)
		}
		t := time.Since(start).Seconds()
		after := cal.run()
		setupS[i] = t * scale((before+after)/2)
		before = after
	}
	s.cal = cal

	rng := rand.New(rand.NewSource(o.Seed))
	measure := time.Duration(o.Seconds * float64(time.Second))
	if o.Trace {
		if err := s.traced(res, measure, rng); err != nil {
			return nil, err
		}
		res.Spans = tr.spans
	} else {
		s.tr = nil
		ph := s.timed(measure, rng)
		ph.account(res)
		res.Metrics = []Metric{
			{"setup_s", median(setupS), "s"},
			{"sim_mips", median(ph.passMIPS), "Minstr/s"},
			{"job_ns_per_instr_p50", weightedQuantile(ph.jobNS, ph.jobInstrs, 0.5), "ns/instr"},
			{"job_ns_per_instr_p90", weightedQuantile(ph.jobNS, nil, 0.9), "ns/instr"},
			{"jobs_per_s", median(ph.passJobsPerS), "jobs/s"},
			{"allocs_per_kinstr", 1000 * float64(ph.mallocs) / float64(ph.instrs), "alloc/kinstr"},
			{"alloc_bytes_per_instr", float64(ph.allocBytes) / float64(ph.instrs), "B/instr"},
			{"max_rss_mb", maxRSSMB(), "MB"},
			{"sim_ipc", s.simIPC(), "instr/cycle"},
		}
	}
	res.Digest = fmt.Sprintf("%016x", s.digest())
	res.HostSpeed = cal.speed()
	return res, nil
}

// setUp builds a suite: job list, machine contexts, and an untimed
// warm-up pass over the job-list prefix that covers every pairing, so
// pools are full and lazy construction is done before timing starts.
func setUp(w *Workload, seed int64, sz size, tr *tracer) (*suite, error) {
	s := &suite{w: w, seed: seed, sz: sz, tr: tr}
	root := tr.begin("setup", 0, -1)
	defer tr.end(root)
	s.buildSpan = tr.begin("setup.build", root, -1)
	err := w.build(s)
	tr.end(s.buildSpan)
	if err != nil {
		return nil, err
	}
	for i, j := range s.jobs {
		j.id = i
	}
	s.first = make([]outcome, len(s.jobs))
	s.ran = make([]bool, len(s.jobs))

	sp := tr.begin("setup.context", root, -1)
	err = s.buildContexts()
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("setup.warmup", root, -1)
	defer tr.end(sp)
	for _, j := range s.jobs[:min(w.warmJobs, len(s.jobs))] {
		if _, err := s.runJob(j, sp); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// buildContexts builds one warm machine context per distinct machine
// configuration; conformance jobs get a sweep context, which warms its
// own pools during the warm-up pass.
func (s *suite) buildContexts() error {
	if s.jobs[0].prog == nil {
		s.sc = oracle.NewSweepContext()
		return nil
	}
	s.pool = core.NewMachinePool()
	built := make(map[string]bool)
	for _, j := range s.jobs {
		key := core.ConfigFingerprint(j.cfg)
		if built[key] {
			continue
		}
		built[key] = true
		ctx, err := s.pool.Get(j.cfg)
		if err != nil {
			return err
		}
		if _, err := ctx.Prepare(); err != nil {
			return err
		}
		s.pool.Put(ctx)
	}
	return nil
}

// jobCount is the job-list length of the progen workloads.
func (s *suite) jobCount() int {
	if s.sz.jobs > 0 {
		return min(s.sz.jobs, s.w.jobs)
	}
	return s.w.jobs
}

// phase records one timed phase. Its host times are scaled to the
// reference host speed (see calib.go); a pass's time is the sum of its
// jobs' times.
type phase struct {
	jobs   int
	instrs uint64
	// jobNS is each successful job's host ns per simulated instruction;
	// jobInstrs its simulated instructions, the percentile weight.
	jobNS, jobInstrs []float64
	// passMIPS and passJobsPerS hold one sample per pass of passJobs
	// consecutive jobs.
	passMIPS, passJobsPerS []float64
	mallocs, allocBytes    uint64
	errs                   []error
}

// timed runs jobs in seeded random order, reshuffled every pass over the
// job list, until d has elapsed and every job has run at least once. Jobs
// run in segments of at least calibEvery, each closed by a calibration
// run; a segment's jobs are scaled by the mean of the calibrations on
// either side of it (see calib.go).
func (s *suite) timed(d time.Duration, rng *rand.Rand) *phase {
	ph := &phase{}
	passJobs := min(s.w.passJobs, len(s.jobs))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	deadline := time.Now().Add(d)

	// Jobs of the open segment: host ns and simulated instructions (0 for
	// a failed job, which counts in pass time but yields no sample).
	type pending struct {
		ns     float64
		instrs uint64
	}
	var seg []pending
	segNS := 0.0
	before := s.cal.run()
	passNS, passInstrs, passN := 0.0, uint64(0), 0
	var order []int
	for k := 0; ; k++ {
		if k%len(s.jobs) == 0 {
			order = rng.Perm(len(s.jobs))
		}
		j := s.jobs[order[k%len(s.jobs)]]
		t0 := time.Now()
		o, err := s.runJob(j, 0)
		t1 := time.Now()
		ph.jobs++
		if err == nil && o.instrs == 0 {
			err = fmt.Errorf("job %s: retired no instructions", j.name)
		}
		ns := float64(t1.Sub(t0))
		if err != nil {
			ph.errs = append(ph.errs, err)
			o.instrs = 0
		}
		seg = append(seg, pending{ns, o.instrs})
		segNS += ns
		done := k+1 >= len(s.jobs) && !t1.Before(deadline)
		if segNS < float64(calibEvery) && !done {
			continue
		}
		after := s.cal.run()
		f := scale((before + after) / 2)
		for _, p := range seg {
			passNS += p.ns * f
			passInstrs += p.instrs
			if passN++; passN == passJobs {
				ph.passMIPS = append(ph.passMIPS, 1e3*float64(passInstrs)/passNS)
				ph.passJobsPerS = append(ph.passJobsPerS, 1e9*float64(passN)/passNS)
				passNS, passInstrs, passN = 0, 0, 0
			}
			if p.instrs > 0 {
				ph.instrs += p.instrs
				ph.jobNS = append(ph.jobNS, p.ns*f/float64(p.instrs))
				ph.jobInstrs = append(ph.jobInstrs, float64(p.instrs))
			}
		}
		before, seg, segNS = after, seg[:0], 0
		if done {
			break
		}
	}
	runtime.ReadMemStats(&m1)
	ph.mallocs = m1.Mallocs - m0.Mallocs
	ph.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return ph
}

// account adds the phase's jobs and failures to res.
func (ph *phase) account(res *Result) {
	res.Attempted += ph.jobs
	for _, err := range ph.errs {
		res.fail(err)
	}
}

// simIPC is the simulated IPC over the distinct jobs.
func (s *suite) simIPC() float64 {
	var instrs, cycles uint64
	var inv float64
	n := 0
	for i, o := range s.first {
		if !s.ran[i] || o.cycles == 0 {
			continue
		}
		instrs += o.instrs
		cycles += o.cycles
		inv += float64(o.cycles) / float64(o.instrs)
		n++
	}
	if n == 0 {
		return 0
	}
	if s.w.harmonicIPC {
		return float64(n) / inv
	}
	return float64(instrs) / float64(cycles)
}

// digest hashes every job's first outcome in job-list order.
func (s *suite) digest() uint64 {
	h := fnvOffset
	for i, o := range s.first {
		if s.ran[i] {
			h = mix(h, o.digest)
		} else {
			h = mix(h, 0)
		}
	}
	return h
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// cpuTime is the process's user plus system CPU time, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median returns the median of v (0 for none).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// weightedQuantile returns the smallest value v such that samples up to v
// carry at least a share q of the total weight; nil weights weigh every
// sample equally.
//
// The SPEC workloads' per-job values form eight clusters, one per
// program, of equal job counts, so a count-based median falls on a
// cluster edge and jumps with noise. The instruction-weighted median falls
// inside a cluster; the count-based 90th percentile falls inside the
// slowest program's cluster, while the instruction-weighted one sits at
// the top edge of the cluster below it.
func weightedQuantile(vals, weights []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	w := func(i int) float64 {
		if weights == nil {
			return 1
		}
		return weights[i]
	}
	idx := make([]int, len(vals))
	var total float64
	for i := range idx {
		idx[i] = i
		total += w(i)
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	var cum float64
	for _, i := range idx {
		cum += w(i)
		if cum >= q*total {
			return vals[i]
		}
	}
	return vals[idx[len(idx)-1]]
}

package bench

import (
	"bytes"
	"fmt"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/asm"
	"dtsvliw/internal/core"
	"dtsvliw/internal/mem"
	"dtsvliw/internal/oracle"
	"dtsvliw/internal/progcheck"
	"dtsvliw/internal/progen"
	"dtsvliw/internal/workloads"
)

// Workload is one benchmark input set.
type Workload struct {
	Name string
	Why  string

	// jobs is the length of the fixed job list; the seed picks the
	// programs of the progen workloads and shuffles the run order of all.
	jobs int
	// passJobs is the number of consecutive jobs one sim_mips sample
	// covers.
	passJobs int
	// warmJobs is the length of the job-list prefix the untimed warm-up
	// pass runs: every (program, machine) or (shape, machine) pairing
	// once.
	warmJobs int
	// captureJobs is the length of the job-list prefix whose scheduler
	// input the traced run captures and replays.
	captureJobs int
	// harmonicIPC selects the paper's per-program harmonic mean for
	// sim_ipc; otherwise sim_ipc is total instructions over total cycles.
	harmonicIPC bool
	// build generates and assembles the job list (the set-up work before
	// machine contexts are built).
	build func(s *suite) error
}

// Workloads returns the benchmark's workloads.
func Workloads() []*Workload {
	return []*Workload{
		{
			Name: "spec-ideal",
			Why:  "SPECint95 analogues on the ideal 8x8 machine: the chained VLIW Engine hot loop (vliw engine, vcache.Follow); its perfect caches do no work",
			jobs: 8, passJobs: 8, warmJobs: 8, captureJobs: 8, harmonicIPC: true,
			build: specJobs(core.IdealConfig(8, 8)),
		},
		{
			Name: "spec-feasible",
			Why:  "the same programs on the feasible machine: real 32 KB I/D caches on every fetch and memory op, and VLIW Cache evictions",
			jobs: 8, passJobs: 8, warmJobs: 8, captureJobs: 8, harmonicIPC: true,
			build: specJobs(core.FeasibleConfig()),
		},
		{
			Name: "trace-build",
			Why:  "400 seeded progen programs run cold: the block write path (Primary, sched.Insert/Flush, vliw.Lower, vcache.Save)",
			jobs: 400, passJobs: 400, warmJobs: 8, captureJobs: 96,
			build: traceBuildJobs,
		},
		{
			Name: "oracle-sweep",
			Why:  "the serial conformance sweep (generate, certify, lock-step RunDiff): progen, progcheck, asm, reference interpreter, pool resets",
			jobs: 880, passJobs: 176, warmJobs: 44, captureJobs: 88,
			build: oracleJobs,
		},
	}
}

// WorkloadByName resolves a workload name.
func WorkloadByName(name string) (*Workload, bool) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

// job is one unit of measured work: one program on one machine.
type job struct {
	id   int
	name string
	cfg  core.Config
	// prog is the assembled program of a machine job; nil for a
	// conformance job, which generates, certifies and assembles its
	// program as part of the job.
	prog  *asm.Program
	shape progen.Shape
	seed  int64
	// check validates the final state of a halted machine job.
	check func(st *arch.State) error
}

// outcome is what one job run produced; two runs of one job must produce
// equal outcomes.
type outcome struct {
	instrs, cycles uint64
	digest         uint64
}

func specJobs(cfg core.Config) func(s *suite) error {
	return func(s *suite) error {
		cfg.MaxInstrs = s.sz.maxInstrs
		sp := s.tr.begin("setup.assemble", s.buildSpan, -1)
		defer s.tr.end(sp)
		for _, w := range workloads.All() {
			p, err := w.Program()
			if err != nil {
				return fmt.Errorf("assemble %s: %w", w.Name, err)
			}
			s.jobs = append(s.jobs, &job{name: w.Name, cfg: cfg, prog: p, check: w.Validate})
		}
		return nil
	}
}

// progenSeed is the generator seed of job i of a run seeded with seed.
func progenSeed(seed int64, i int) int64 {
	return int64(splitmix(uint64(seed))>>33) + int64(i)
}

// traceBuildJobs generates the trace-build programs: shapes rotate per
// job and the machine alternates every len(shapes) jobs, so each shape
// runs on both machines.
func traceBuildJobs(s *suite) error {
	shapes := progen.Shapes()
	machines := []struct {
		name string
		cfg  core.Config
	}{{"ideal-8x8", core.IdealConfig(8, 8)}, {"feasible", core.FeasibleConfig()}}
	n := s.jobCount()
	srcs := make([]string, n)
	sp := s.tr.begin("setup.generate", s.buildSpan, -1)
	for i := range srcs {
		srcs[i] = progen.Generate(progen.ShapeParams(shapes[i%len(shapes)], progenSeed(s.seed, i)))
	}
	s.tr.end(sp)

	progs := make([]*asm.Program, n)
	sp = s.tr.begin("setup.assemble", s.buildSpan, -1)
	for i, src := range srcs {
		p, err := asm.Assemble(src)
		if err != nil {
			s.tr.end(sp)
			return fmt.Errorf("assemble progen seed %d: %w", progenSeed(s.seed, i), err)
		}
		progs[i] = p
	}
	s.tr.end(sp)

	sp = s.tr.begin("setup.reference", s.buildSpan, -1)
	defer s.tr.end(sp)
	for i, p := range progs {
		m := machines[(i/len(shapes))%len(machines)]
		want, err := reference(p, m.cfg.NWin)
		if err != nil {
			return fmt.Errorf("reference run of progen seed %d: %w", progenSeed(s.seed, i), err)
		}
		s.jobs = append(s.jobs, &job{
			name:  fmt.Sprintf("%s#%d/%s", shapes[i%len(shapes)], progenSeed(s.seed, i), m.name),
			cfg:   m.cfg,
			prog:  p,
			check: want.check,
		})
	}
	return nil
}

// refLimit bounds the sequential reference run of a generated program.
const refLimit = 50_000_000

// result is the architecturally visible end of a program run.
type result struct {
	exit uint32
	out  []byte
}

// reference runs p on the plain sequential interpreter.
func reference(p *asm.Program, nwin int) (result, error) {
	st := arch.NewState(nwin, mem.NewMemory())
	load(st, p)
	if err := st.Run(refLimit); err != nil {
		return result{}, err
	}
	return result{exit: st.ExitCode, out: st.Output}, nil
}

func (r result) check(st *arch.State) error {
	if st.ExitCode != r.exit || !bytes.Equal(st.Output, r.out) {
		return fmt.Errorf("exit %d output %q, sequential reference exit %d output %q",
			st.ExitCode, st.Output, r.exit, r.out)
	}
	return nil
}

// oracleJobs lays out the conformance sweep exactly as oracle.Sweep
// rotates it: shape i mod len(shapes), configuration (i/len(shapes)) mod
// len(configs). Programs are generated inside each job, as in the sweep.
func oracleJobs(s *suite) error {
	shapes := progen.Shapes()
	configs := oracle.DefaultConfigs()
	for i := 0; i < s.jobCount(); i++ {
		nc := configs[(i/len(shapes))%len(configs)]
		shape := shapes[i%len(shapes)]
		s.jobs = append(s.jobs, &job{
			name:  fmt.Sprintf("%s#%d/%s", shape, progenSeed(s.seed, i), nc.Name),
			cfg:   nc.Cfg,
			shape: shape,
			seed:  progenSeed(s.seed, i),
		})
	}
	return nil
}

// load installs an assembled program into st with the memory layout of
// every simulator front end: sections, an 8 KB stack below 0x80000, the
// entry PC, %sp and the decoded-instruction cache over the text range.
func load(st *arch.State, p *asm.Program) {
	p.Load(st.Mem)
	st.Mem.Map(0x7E000, 0x2000)
	st.PC = p.Entry
	st.SetReg(14, 0x7FF00)
	st.SetTextRange(p.TextBase, p.TextSize)
}

// runJob runs one job under the span parent.
func (s *suite) runJob(j *job, parent int) (outcome, error) {
	root := s.tr.begin("job", parent, j.id)
	defer s.tr.end(root)
	var o outcome
	var err error
	if j.prog == nil {
		o, err = s.runConformance(j, root)
	} else {
		o, err = s.runMachine(j, root)
	}
	if err != nil {
		return o, fmt.Errorf("job %s: %w", j.name, err)
	}
	return o, nil
}

// runMachine runs a machine job cold on a pooled context.
func (s *suite) runMachine(j *job, root int) (outcome, error) {
	sp := s.tr.begin("job.run", root, j.id)
	ctx, err := s.pool.Get(j.cfg)
	if err != nil {
		s.tr.end(sp)
		return outcome{}, err
	}
	defer s.pool.Put(ctx)
	st := ctx.State()
	load(st, j.prog)
	m, err := ctx.Prepare()
	if err == nil {
		err = m.Run()
	}
	s.tr.end(sp)
	if err != nil {
		return outcome{}, err
	}

	sp = s.tr.begin("job.validate", root, j.id)
	defer s.tr.end(sp)
	// A run stopped by the smoke test's instruction cap has no final
	// state to validate; an uncapped Run returns only once halted.
	if st.Halted {
		if err := j.check(st); err != nil {
			return outcome{}, err
		}
	}
	o := outcome{instrs: m.Stats.Retired, cycles: m.Stats.Cycles, digest: statsDigest(&m.Stats)}
	return o, s.settle(j, o)
}

// runConformance is one case of the conformance sweep: generate, certify,
// then run lock-step against the reference interpreter on pooled state.
func (s *suite) runConformance(j *job, root int) (outcome, error) {
	sp := s.tr.begin("job.generate", root, j.id)
	src := progen.Generate(progen.ShapeParams(j.shape, j.seed))
	s.tr.end(sp)

	sp = s.tr.begin("job.certify", root, j.id)
	err := progcheck.Certify(src)
	s.tr.end(sp)
	if err != nil {
		return outcome{}, err
	}

	sp = s.tr.begin("job.run", root, j.id)
	res, err := s.sc.RunDiff(src, j.cfg)
	s.tr.end(sp)
	if err != nil {
		return outcome{}, err
	}

	sp = s.tr.begin("job.validate", root, j.id)
	defer s.tr.end(sp)
	h := mix(fnvOffset, uint64(res.ExitCode))
	for _, b := range res.Output {
		h = mix(h, uint64(b))
	}
	o := outcome{instrs: res.Instret, cycles: res.Cycles, digest: mix(mix(h, res.Instret), res.Cycles)}
	return o, s.settle(j, o)
}

// settle records a job's first outcome and requires every later run of
// the job to reproduce it: simulation is deterministic, so a pooled
// context that leaks state between runs shows up here.
func (s *suite) settle(j *job, o outcome) error {
	if !s.ran[j.id] {
		s.ran[j.id] = true
		s.first[j.id] = o
		return nil
	}
	if s.first[j.id] != o {
		return fmt.Errorf("run not reproducible: %+v, first run %+v", o, s.first[j.id])
	}
	return nil
}

// statsDigest hashes the simulated statistics of a run: every counter of
// the modelled machine, none of the simulator's dispatch mechanism (chain
// links), so a change that only speeds up the simulator keeps it.
func statsDigest(st *core.Stats) uint64 {
	h := fnvOffset
	for _, v := range [...]uint64{
		st.Cycles, st.PrimaryCycles, st.VLIWCycles, st.SwitchCycles, st.DrainStalls,
		st.Retired, st.Switches, st.BlocksSaved, st.AliasingExceptions, st.OtherExceptions,
		st.ICacheAccesses, st.ICacheMisses, st.DCacheAccesses, st.DCacheMisses,
		st.VCacheHits, st.VCacheMisses,
		st.Sched.Inserted, st.Sched.Splits, st.Sched.BlocksFlushed, st.Sched.FlushedLIs, st.Sched.FlushedSlots,
		st.Engine.LIsExecuted, st.Engine.OpsCommitted, st.Engine.OpsAnnulled, st.Engine.TraceExits,
	} {
		h = mix(h, v)
	}
	return h
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// mix folds v into the FNV-1a hash h, byte by byte.
func mix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// splitmix is the SplitMix64 finalizer, spreading small seeds over the
// generator's seed space.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

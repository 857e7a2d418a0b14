package oracle

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"dtsvliw/internal/asm"
	"dtsvliw/internal/core"
	"dtsvliw/internal/metrics"
	"dtsvliw/internal/par"
	"dtsvliw/internal/progcheck"
	"dtsvliw/internal/progen"
	"dtsvliw/internal/vliw"
)

// shrinkCycles is the preferred (tight) cycle budget for shrink
// candidates, so reduced programs that spin forever are rejected quickly.
// If the original failure needs longer to surface, shrinking falls back
// to the full differential budget.
const shrinkCycles = 1_000_000

// shrinkRefInstrs bounds the sequential well-formedness run of each
// shrink candidate.
const shrinkRefInstrs = 5_000_000

// NamedConfig pairs a machine configuration with the name used to select
// it from the CLI and to label failures.
type NamedConfig struct {
	Name string
	Cfg  core.Config
}

// DefaultConfigs returns the machine configurations the conformance sweep
// rotates through: the paper's ideal geometries, the feasible machine,
// and one variant per orthogonal mechanism (multicycle latencies, the
// §3.11 data-store-list scheme, next-long-instruction prediction, the
// no-source-forwarding ablation, and unchained block dispatch).
func DefaultConfigs() []NamedConfig {
	multi := core.IdealConfig(8, 8)
	multi.LoadLatency, multi.FPLatency, multi.FPDivLatency = 2, 2, 8

	storelist := core.IdealConfig(8, 8)
	storelist.StoreScheme = vliw.SchemeStoreList

	exitpred := core.IdealConfig(8, 8)
	exitpred.ExitPrediction = true

	nofwd := core.IdealConfig(8, 8)
	nofwd.NoSourceForwarding = true

	nochain := core.IdealConfig(8, 8)
	nochain.NoChain = true

	return []NamedConfig{
		{"ideal-4x4", core.IdealConfig(4, 4)},
		{"ideal-8x8", core.IdealConfig(8, 8)},
		{"ideal-2x12", core.IdealConfig(2, 12)},
		{"ideal-16x4", core.IdealConfig(16, 4)},
		{"feasible", core.FeasibleConfig()},
		{"multicycle", multi},
		{"storelist", storelist},
		{"exitpred", exitpred},
		{"nofwd", nofwd},
		{"nochain", nochain},
	}
}

// StrategyConfigs returns the machine configurations exercising the
// non-default scheduling strategies (DESIGN.md §14): the optimal
// repacker across the geometries the strategy-conformance suite proves
// end-to-end (including multicycle latencies and the feasible machine's
// heterogeneous functional units, the two hardest constraint mixes) and
// the degenerate one-instruction-per-block reference.
func StrategyConfigs() []NamedConfig {
	opt := func(cfg core.Config) core.Config {
		cfg.SchedStrategy = "optimal"
		return cfg
	}
	multi := core.IdealConfig(8, 8)
	multi.LoadLatency, multi.FPLatency, multi.FPDivLatency = 2, 2, 8

	oneper := core.IdealConfig(8, 8)
	oneper.SchedStrategy = "one-per-block"

	return []NamedConfig{
		{"optimal-4x4", opt(core.IdealConfig(4, 4))},
		{"optimal-8x8", opt(core.IdealConfig(8, 8))},
		{"optimal-16x16", opt(core.IdealConfig(16, 16))},
		{"optimal-multicycle", opt(multi)},
		{"optimal-feasible", opt(core.FeasibleConfig())},
		{"one-per-block-8x8", oneper},
	}
}

// AllConfigs returns every selectable configuration: the DefaultConfigs
// sweep rotation plus the strategy variants.
func AllConfigs() []NamedConfig {
	return append(DefaultConfigs(), StrategyConfigs()...)
}

// ConfigByName resolves one of the AllConfigs by name.
func ConfigByName(name string) (NamedConfig, bool) {
	for _, nc := range AllConfigs() {
		if nc.Name == name {
			return nc, true
		}
	}
	return NamedConfig{}, false
}

// ConfigNames lists the selectable configuration names.
func ConfigNames() []string {
	cs := AllConfigs()
	names := make([]string, len(cs))
	for i, nc := range cs {
		names[i] = nc.Name
	}
	return names
}

// ParseConfigs resolves a comma-separated list of configuration names,
// as the CLIs' -configs flag takes it; "" selects DefaultConfigs.
func ParseConfigs(arg string) ([]NamedConfig, error) {
	if arg == "" {
		return DefaultConfigs(), nil
	}
	var out []NamedConfig
	for _, name := range strings.Split(arg, ",") {
		nc, ok := ConfigByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown config %q (have: %s)", name, strings.Join(ConfigNames(), ", "))
		}
		out = append(out, nc)
	}
	return out, nil
}

// Failure is one conformance counterexample: the seed and shape that
// generated the program, the configuration it diverged under, and the
// shrunk reproducer.
type Failure struct {
	Seed       int64
	Shape      progen.Shape
	ConfigName string
	Source     string // shrunk program (re-runnable assembly)
	OrigLines  int    // lines before shrinking
	Lines      int    // lines after shrinking
	Div        *core.MismatchError
	Err        error // non-divergence failure (generator or harness bug)
}

// Render formats the failure as a replayable report: metadata, the
// divergence, and the shrunk assembly.
func (f *Failure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FAILURE seed=%d shape=%s config=%s (shrunk %d -> %d lines)\n",
		f.Seed, f.Shape, f.ConfigName, f.OrigLines, f.Lines)
	if f.Div != nil {
		fmt.Fprintf(&b, "%v\n", f.Div)
	}
	if f.Err != nil {
		fmt.Fprintf(&b, "error: %v\n", f.Err)
	}
	fmt.Fprintf(&b, "replay: dtsvliw-oracle -replay %d -shapes %s -configs %s\n",
		f.Seed, f.Shape, f.ConfigName)
	b.WriteString("---- reproducer ----\n")
	b.WriteString(strings.TrimRight(f.Source, "\n"))
	b.WriteString("\n---- end reproducer ----")
	return b.String()
}

// Report summarises a conformance sweep.
type Report struct {
	Runs     int
	Instret  uint64 // total sequential instructions checked
	Cycles   uint64 // total DTSVLIW cycles simulated
	Failures []Failure
}

// SweepOptions parameterises Sweep. Zero values select: all shapes, all
// DefaultConfigs, stop at the first failure, default shrink budget, one
// worker per CPU, pooled machine contexts.
type SweepOptions struct {
	N           int   // number of generated programs
	Seed        int64 // base seed; program i uses Seed+i
	Shapes      []progen.Shape
	Configs     []NamedConfig
	MaxFail     int // stop after this many failures
	ShrinkEvals int // differential runs each shrink may spend
	// VerifyBlocks additionally runs the block-legality verifier
	// (internal/blockcheck) on every block the machine saves: the run
	// fails if the scheduler ever emits a block that cannot be statically
	// proven equivalent to its sequential trace.
	VerifyBlocks bool
	// Workers fans the sweep out over par.Workers(Workers, N) goroutines
	// (0 = one per CPU, 1 = serial). Results are merged in case order, so
	// the Report — runs, totals, failures, shrunk reproducers — and the
	// Progress sequence are byte-identical for every worker count.
	Workers int
	// NoReuse disables machine-context pooling, rebuilding every machine
	// and reference from scratch (the pre-pooling behaviour). Used by the
	// throughput benchmark as its baseline; results are identical either
	// way.
	NoReuse bool
	// FastForward executes the first N sequential instructions of every
	// program at interpreter speed before cycle-accurate simulation
	// begins (core.Config.FastForward): the differential comparison
	// still covers the prefix via one aggregate checkpoint.
	FastForward uint64
	// Progress, when set, is called after every run in case order (f is
	// nil unless the run failed; the pointee is a private copy the
	// callback may retain).
	Progress func(done, total int, f *Failure)
	// Metrics selects the registry the sweep publishes its progress and
	// occupancy instruments to, and is threaded into every machine the
	// sweep builds (core.Config.Metrics); nil publishes to
	// metrics.Default. Ignored entirely when the process-wide switch is
	// off (metrics.SetEnabled(false)).
	Metrics *metrics.Registry
}

// caseResult is the outcome of one sweep case, self-contained so cases
// can be computed out of order and merged in order.
type caseResult struct {
	failure *Failure // nil on success
	instret uint64
	cycles  uint64
}

// sweepRunner executes sweep cases for one worker. Each worker owns its
// SweepContext, so pooled state is never shared across goroutines and a
// case's result never depends on which worker ran it: context reuse is
// observationally identical to fresh construction.
type sweepRunner struct {
	o       SweepOptions
	shapes  []progen.Shape
	configs []NamedConfig
	diffRun func(*asm.Program, core.Config) (*Result, error)

	// Metrics plumbing (nil when the process-wide switch is off): reg is
	// threaded into every machine config so core-layer counters land in
	// the same registry; wp is this worker's pre-resolved attribution
	// counter; lastHits/lastMisses are the cursor for publishing pool
	// counter deltas after each case.
	sm                   *sweepMetrics
	reg                  *metrics.Registry
	sc                   *SweepContext
	wp                   *metrics.Counter
	lastHits, lastMisses uint64

	// fails is the sweep's record of failing cases, which tells a case
	// whether the sweep is sure to discard it; hooks lets the package's
	// tests watch the cases.
	fails *failLog
	hooks sweepHooks
}

// sweepHooks lets the package's tests watch a sweep's cases: onFailure is
// called with a case's index once its failure is recorded, and
// onShrinkEval before each shrink candidate the case evaluates.
type sweepHooks struct {
	onFailure, onShrinkEval func(i int)
}

// failLog records the index of every failing case (certification,
// program error or divergence) as soon as its failure is known, before
// the case shrinks.
type failLog struct {
	budget int // the sweep's failure budget
	mu     sync.Mutex
	idx    []int
}

func (l *failLog) add(i int) {
	l.mu.Lock()
	l.idx = append(l.idx, i)
	l.mu.Unlock()
}

// doomed reports whether the failures recorded below case i fill the
// budget. The sweep then discards case i: every case below it merges
// before it, so the sweep stops at or before the last of those failures.
func (l *failLog) doomed(i int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, j := range l.idx {
		if j < i {
			n++
		}
	}
	return n >= l.budget
}

// failed records that case i failed.
func (r *sweepRunner) failed(i int) {
	r.fails.add(i)
	if r.hooks.onFailure != nil {
		r.hooks.onFailure(i)
	}
}

func newSweepRunner(o SweepOptions, shapes []progen.Shape, configs []NamedConfig, sm *sweepMetrics, worker int) *sweepRunner {
	r := &sweepRunner{o: o, shapes: shapes, configs: configs, sm: sm}
	if sm != nil {
		r.reg = sm.reg
		r.wp = sm.workerPrograms.With(workerLabel(worker))
	}
	if o.NoReuse {
		r.diffRun = RunDiffProgram
	} else {
		r.sc = NewSweepContext()
		r.diffRun = r.sc.RunDiffProgram
	}
	return r
}

// runCase generates, runs and (on divergence) shrinks case i.
func (r *sweepRunner) runCase(i int) caseResult {
	if r.sm != nil {
		r.sm.busy.Add(1)
		defer func() {
			r.wp.Inc()
			if r.sc != nil {
				p := r.sc.Pool()
				r.sm.poolHits.Add(p.Hits - r.lastHits)
				r.sm.poolMisses.Add(p.Misses - r.lastMisses)
				r.lastHits, r.lastMisses = p.Hits, p.Misses
			}
			r.sm.busy.Add(-1)
		}()
	}
	seed := r.o.Seed + int64(i)
	shape := r.shapes[i%len(r.shapes)]
	nc := r.configs[(i/len(r.shapes))%len(r.configs)]
	nc.Cfg.VerifyBlocks = r.o.VerifyBlocks
	nc.Cfg.FastForward = r.o.FastForward
	nc.Cfg.Metrics = r.reg
	src := progen.Generate(progen.ShapeParams(shape, seed))
	// One assembly serves certification and the differential run.
	p, err := asm.Assemble(src)
	if err != nil {
		err = fmt.Errorf("progcheck: assemble: %w", err) // as progcheck.Certify reports it
	} else {
		err = progcheck.CertifyProgram(p, src)
	}
	if err != nil {
		// A structurally malformed generated program would make every
		// engine diverge from nothing in particular: reject it before any
		// engine runs it, and report the generator bug as its own failure.
		r.failed(i)
		return caseResult{failure: &Failure{Seed: seed, Shape: shape, ConfigName: nc.Name,
			Source: src, OrigLines: countLines(src), Lines: countLines(src), Err: err}}
	}

	res, err := r.diffRun(p, nc.Cfg)
	if err == nil {
		return caseResult{instret: res.Instret, cycles: res.Cycles}
	}
	r.failed(i)
	f := &Failure{Seed: seed, Shape: shape, ConfigName: nc.Name,
		Source: src, OrigLines: countLines(src), Lines: countLines(src)}
	var d *core.MismatchError
	if errors.As(err, &d) {
		// Once the sweep is sure to discard this case, its shrink
		// evaluates no further candidate.
		proceed := func() bool {
			if r.fails.doomed(i) {
				return false
			}
			if r.hooks.onShrinkEval != nil {
				r.hooks.onShrinkEval(i)
			}
			return true
		}
		small, smallDiv := shrinkDivergence(src, nc.Cfg, r.o.ShrinkEvals, proceed)
		f.Source, f.Lines = small, countLines(small)
		f.Div = smallDiv
		if f.Div == nil {
			f.Div = d // shrinking could not re-confirm; keep the original
		}
	} else {
		f.Err = err
	}
	return caseResult{failure: f}
}

// consume merges one case result into the report, in case order, and
// reports whether the failure budget is exhausted. Progress receives a
// private copy of the failure, never a pointer into rep.Failures (whose
// backing array relocates as it grows).
func consume(rep *Report, o SweepOptions, sm *sweepMetrics, cr caseResult, i, maxFail int) (stop bool) {
	rep.Runs++
	if sm != nil {
		sm.programs.Inc()
	}
	if cr.failure == nil {
		rep.Instret += cr.instret
		rep.Cycles += cr.cycles
		if sm != nil {
			sm.instret.Add(cr.instret)
			sm.cycles.Add(cr.cycles)
			sm.programCycles.Observe(cr.cycles)
		}
		if o.Progress != nil {
			o.Progress(i+1, o.N, nil)
		}
		return false
	}
	if sm != nil {
		sm.divergences.Inc()
	}
	rep.Failures = append(rep.Failures, *cr.failure)
	stop = len(rep.Failures) >= maxFail
	if o.Progress != nil {
		fcopy := *cr.failure
		o.Progress(i+1, o.N, &fcopy)
	}
	return stop
}

// Sweep runs the property-based conformance harness: for i in [0, N),
// generate the program for seed Seed+i in shape i mod len(Shapes), run it
// differentially under a rotating configuration, and shrink every failing
// program to a minimal reproducer. Determinism: the same options always
// test the same (program, configuration) pairs and produce the same
// Report, regardless of Workers and NoReuse — every worker runs its cases
// on its own sweepRunner, and par.Ordered merges them in case order.
func Sweep(o SweepOptions) *Report { return sweep(o, sweepHooks{}) }

// sweep is Sweep with the package's test hooks (none in Sweep).
func sweep(o SweepOptions, hooks sweepHooks) *Report {
	shapes := o.Shapes
	if len(shapes) == 0 {
		shapes = progen.Shapes()
	}
	configs := o.Configs
	if len(configs) == 0 {
		configs = DefaultConfigs()
	}
	maxFail := o.MaxFail
	if maxFail <= 0 {
		maxFail = 1
	}

	var sm *sweepMetrics
	if metrics.Enabled() {
		reg := o.Metrics
		if reg == nil {
			reg = metrics.Default()
		}
		sm = newSweepMetrics(reg)
		sm.active.Add(1)
		defer sm.active.Add(-1)
		sm.cases.Set(int64(o.N))
		sm.workers.Set(int64(par.Workers(o.Workers, o.N)))
	}

	rep := &Report{}
	fails := &failLog{budget: maxFail}
	par.Ordered(o.Workers, o.N, func(w int) func(int) caseResult {
		r := newSweepRunner(o, shapes, configs, sm, w)
		r.fails, r.hooks = fails, hooks
		return r.runCase
	}, func(i int, cr caseResult) bool {
		return consume(rep, o, sm, cr, i, maxFail)
	})
	return rep
}

// ShrinkDivergence reduces a diverging program to a minimal program that
// still diverges under cfg, and returns it with its divergence. A
// candidate only counts as a reproducer if it is also a well-formed
// program — it must assemble and halt cleanly under plain sequential
// execution — so dropped lines cannot turn the failure into an ordinary
// program fault. Shrinking prefers a tight cycle budget so candidates
// that loop forever die fast, falling back to the full budget when the
// original failure needs longer to surface.
func ShrinkDivergence(src string, cfg core.Config, evals int) (string, *core.MismatchError) {
	return shrinkDivergence(src, cfg, evals, nil)
}

// shrinkDivergence is ShrinkDivergence in which a candidate counts as
// not diverging, without being run, once proceed (nil: always) returns
// false.
func shrinkDivergence(src string, cfg core.Config, evals int, proceed func() bool) (string, *core.MismatchError) {
	diverges := func(budget uint64) func(string) bool {
		c := cfg
		c.MaxCycles = budget
		return func(cand string) bool {
			if proceed != nil && !proceed() {
				return false
			}
			if !refHalts(cand, c.NWin) {
				return false
			}
			_, err := RunDiff(cand, c)
			var d *core.MismatchError
			return errors.As(err, &d)
		}
	}
	check := diverges(shrinkCycles)
	if !check(src) {
		check = diverges(maxDiffCycles)
		if !check(src) {
			// Not reproducible at all (should be impossible: runs are
			// deterministic). Hand back the original unshrunk.
			return src, nil
		}
	}
	small := Shrink(src, check, evals)
	_, err := RunDiff(small, cfg)
	var d *core.MismatchError
	errors.As(err, &d)
	return small, d
}

// refHalts reports whether src assembles and halts cleanly under the
// sequential reference interpreter within the shrink budget.
func refHalts(src string, nwin int) bool {
	st, err := BuildState(src, nwin)
	if err != nil {
		return false
	}
	return st.Run(shrinkRefInstrs) == nil
}

func countLines(s string) int {
	return len(strings.Split(strings.TrimRight(s, "\n"), "\n"))
}

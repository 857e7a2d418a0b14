// Package dtsvliw is a software reproduction of the Dynamically Trace
// Scheduled VLIW architecture (A. F. de Souza and P. Rounce, "Dynamically
// Scheduling the Trace Produced During Program Execution into VLIW
// Instructions", IPPS 1999).
//
// The package is the public face of the simulator. It lets a user
// assemble SPARC V7 programs (or pick one of the built-in SPECint95
// analogue workloads), run them on a configurable DTSVLIW machine — a
// Primary Processor plus hardware trace Scheduler Unit feeding a VLIW
// Cache executed by a VLIW Engine — and read back performance statistics.
// The paper's experiments are reproducible through RunExperiment or the
// cmd/experiments tool.
//
// Quick start:
//
//	sys, err := dtsvliw.NewSystemFromWorkload(dtsvliw.Ideal(8, 8), "ijpeg")
//	if err != nil { ... }
//	if err := sys.Run(); err != nil { ... }
//	fmt.Printf("IPC: %.2f\n", sys.Stats().IPC())
package dtsvliw

import (
	"fmt"
	"io"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/asm"
	"dtsvliw/internal/core"
	"dtsvliw/internal/dif"
	"dtsvliw/internal/experiments"
	"dtsvliw/internal/isa"
	"dtsvliw/internal/mem"
	"dtsvliw/internal/sched"
	"dtsvliw/internal/stats"
	"dtsvliw/internal/telemetry"
	"dtsvliw/internal/vliw"
	"dtsvliw/internal/workloads"
)

// CacheSpec describes one timing-model cache. Perfect caches always hit.
type CacheSpec struct {
	SizeKB      int
	LineBytes   int
	Assoc       int
	MissPenalty int
	Perfect     bool
}

func (c CacheSpec) toInternal() mem.CacheConfig {
	return mem.CacheConfig{
		SizeBytes: c.SizeKB * 1024, LineBytes: c.LineBytes,
		Assoc: c.Assoc, MissPenalty: c.MissPenalty, Perfect: c.Perfect,
	}
}

// FU names a functional-unit class for a long-instruction slot.
type FU string

// Functional-unit classes.
const (
	FUInt       FU = "int"
	FULoadStore FU = "ldst"
	FUFloat     FU = "fp"
	FUBranch    FU = "br"
	FUAny       FU = "any"
)

func (f FU) toInternal() (isa.FUClass, error) {
	switch f {
	case FUInt:
		return isa.FUInt, nil
	case FULoadStore:
		return isa.FULoadStore, nil
	case FUFloat:
		return isa.FUFloat, nil
	case FUBranch:
		return isa.FUBranch, nil
	case FUAny, "":
		return isa.FUAny, nil
	}
	return 0, fmt.Errorf("dtsvliw: unknown FU class %q", string(f))
}

// Config parameterises a DTSVLIW machine. Zero values are filled with the
// paper's Table 1 defaults where applicable; use Ideal or Feasible for the
// paper's two reference configurations.
type Config struct {
	// Width is instructions per long instruction; Height is long
	// instructions per block.
	Width, Height int
	// FUs optionally assigns a class to each slot (len == Width); nil
	// means any instruction may occupy any slot.
	FUs []FU

	NWin int // register windows (0 = the default 16)

	ICache CacheSpec
	DCache CacheSpec

	// VCacheKB and VCacheAssoc size the VLIW Cache (0 = the default
	// 3072 KB, 4-way).
	VCacheKB    int
	VCacheAssoc int

	NextLIMissPenalty int

	// StoreListScheme selects the paper's §3.11 alternative exception
	// handling: stores buffer in a data store list drained in order at
	// block end, instead of the checkpoint recovery store list.
	StoreListScheme bool

	// ExitPrediction enables next-long-instruction prediction for trace
	// exits (paper §5 future work).
	ExitPrediction bool

	// SchedStrategy names the Scheduler Unit's placement policy, one of
	// core.StrategyNames (DESIGN.md §14): empty selects "fcfs", the
	// paper's hardware algorithm; "optimal" repacks every block to its
	// minimum height at flush time (the scheduling-gap oracle);
	// "one-per-block" is the degenerate reference.
	SchedStrategy string
	// SchedNodeBudget bounds search-based strategies per block (0 =
	// strategy default, negative = unlimited).
	SchedNodeBudget int

	// LoadLatency/FPLatency/FPDivLatency enable the multicycle-
	// instruction extension (the paper's companion study); zero or one is
	// the Table 1 single-cycle baseline.
	LoadLatency  int
	FPLatency    int
	FPDivLatency int

	// Telemetry attaches a cycle-stamped telemetry collector to the run
	// (DESIGN.md §12): an event trace exportable as a Perfetto timeline,
	// per-block profiles, and distribution histograms, read back through
	// System.Telemetry. Off by default; when off, the machine pays
	// nothing for the instrumentation.
	Telemetry bool
	// TelemetryRingSize bounds the event trace ring (0 = 8k events,
	// sized to stay cache-resident; raise for long timeline exports, up
	// to 16Mi events).
	TelemetryRingSize int

	// TestMode runs the sequential test machine in lockstep, validating
	// every block boundary (paper §4).
	TestMode bool

	MaxInstrs uint64
	MaxCycles uint64
}

// toInternal translates the configuration and validates the result, so
// a refused value never sizes anything. Zero NWin, VCacheKB and
// VCacheAssoc keep the default; every other value, negative ones
// included, is forwarded for core.Config.Validate to judge.
func (c Config) toInternal() (core.Config, error) {
	base := core.IdealConfig(c.Width, c.Height)
	if c.NWin != 0 {
		base.NWin = c.NWin
	}
	base.ICache = c.ICache.toInternal()
	base.DCache = c.DCache.toInternal()
	if c.VCacheKB != 0 {
		base.VCacheKB = c.VCacheKB
	}
	if c.VCacheAssoc != 0 {
		base.VCacheAssoc = c.VCacheAssoc
	}
	base.NextLIMissPenalty = c.NextLIMissPenalty
	if c.StoreListScheme {
		base.StoreScheme = vliw.SchemeStoreList
	}
	base.ExitPrediction = c.ExitPrediction
	base.SchedStrategy = c.SchedStrategy
	base.SchedNodeBudget = c.SchedNodeBudget
	base.LoadLatency = c.LoadLatency
	base.FPLatency = c.FPLatency
	base.FPDivLatency = c.FPDivLatency
	if c.Telemetry {
		base.Telemetry = &telemetry.Config{RingSize: c.TelemetryRingSize}
	}
	base.TestMode = c.TestMode
	base.MaxInstrs = c.MaxInstrs
	if c.MaxCycles > 0 {
		base.MaxCycles = c.MaxCycles
	}
	if c.FUs != nil {
		base.FUs = make([]isa.FUClass, len(c.FUs))
		for i, f := range c.FUs {
			cl, err := f.toInternal()
			if err != nil {
				return base, err
			}
			base.FUs[i] = cl
		}
	}
	return base, base.Validate()
}

// Fingerprint returns a short stable digest of the configuration
// (core.ConfigFingerprint): equal fingerprints mean identical machine
// geometry and behaviour. It labels /statusz and result caches. The
// digest identifies a configuration within one build of the code, not
// across refactors: a renamed, moved or deleted field of core.Config
// changes it. Returns "" for configurations that do not validate.
func (c Config) Fingerprint() string {
	base, err := c.toInternal()
	if err != nil {
		return ""
	}
	return core.ConfigFingerprint(base)
}

// Ideal returns the paper's architecture-study configuration (§4.1–§4.3):
// perfect instruction and data caches and a 3072-KB 4-way VLIW Cache.
func Ideal(width, height int) Config {
	return Config{
		Width: width, Height: height, NWin: 16,
		ICache: CacheSpec{Perfect: true}, DCache: CacheSpec{Perfect: true},
		VCacheKB: 3072, VCacheAssoc: 4,
	}
}

// Feasible returns the paper's §4.4 feasible machine: 32-KB caches with
// 8-cycle misses, a 192-KB 4-way VLIW Cache, 1-cycle next-long-instruction
// miss penalty and ten non-homogeneous functional units.
func Feasible() Config {
	return Config{
		Width: 10, Height: 8, NWin: 16,
		FUs: []FU{FUInt, FUInt, FUInt, FUInt, FULoadStore, FULoadStore,
			FUFloat, FUFloat, FUBranch, FUBranch},
		ICache:            CacheSpec{SizeKB: 32, LineBytes: 32, Assoc: 4, MissPenalty: 8},
		DCache:            CacheSpec{SizeKB: 32, LineBytes: 32, Assoc: 1, MissPenalty: 8},
		VCacheKB:          192,
		VCacheAssoc:       4,
		NextLIMissPenalty: 1,
	}
}

// Program is an assembled SPARC V7 program image.
type Program struct {
	p        *asm.Program
	validate func(*arch.State) error
}

// Assemble assembles SPARC V7 source (see internal/asm for the dialect).
func Assemble(source string) (*Program, error) {
	p, err := asm.Assemble(source)
	if err != nil {
		return nil, err
	}
	return &Program{p: p}, nil
}

// Entry returns the program's entry address.
func (p *Program) Entry() uint32 { return p.p.Entry }

// Symbols returns the program's symbol table.
func (p *Program) Symbols() map[string]uint32 { return p.p.Symbols }

// WorkloadNames lists the built-in SPECint95 analogue workloads in the
// paper's order: compress, gcc, go, ijpeg, m88ksim, perl, vortex, xlisp.
func WorkloadNames() []string { return workloads.Names() }

// WorkloadProgram returns the named built-in workload, with its
// self-validation attached.
func WorkloadProgram(name string) (*Program, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("dtsvliw: unknown workload %q (have %v)", name, workloads.Names())
	}
	p, err := w.Program()
	if err != nil {
		return nil, err
	}
	return &Program{p: p, validate: w.Validate}, nil
}

// Stats re-exports the machine statistics (IPC, cycle split, scheduler and
// engine counters); WriteCounters prints every nonzero counter.
type Stats = core.Stats

// System is a DTSVLIW machine loaded with a program.
type System struct {
	m  *core.Machine
	st *arch.State
	p  *Program
}

// NewSystem builds a DTSVLIW machine running the given program.
func NewSystem(cfg Config, p *Program) (*System, error) {
	icfg, err := cfg.toInternal()
	if err != nil {
		return nil, err
	}
	st := arch.NewState(icfg.NWin, mem.NewMemory())
	st.LoadProgram(p.p)
	machine, err := core.NewMachine(icfg, st)
	if err != nil {
		return nil, err
	}
	return &System{m: machine, st: st, p: p}, nil
}

// NewSystemFromWorkload builds a DTSVLIW machine running a built-in
// workload.
func NewSystemFromWorkload(cfg Config, workload string) (*System, error) {
	p, err := WorkloadProgram(workload)
	if err != nil {
		return nil, err
	}
	return NewSystem(cfg, p)
}

// Run executes until the program halts (or a configured limit stops it).
// In TestMode a divergence from sequential execution returns an error.
func (s *System) Run() error {
	if err := s.m.Run(); err != nil {
		return err
	}
	if s.st.Halted && s.p.validate != nil {
		return s.p.validate(s.st)
	}
	return nil
}

// Stats returns the run statistics.
func (s *System) Stats() Stats { return s.m.Stats }

// Telemetry re-exports the cycle-stamped telemetry collector (event
// trace, per-block profiles, distribution histograms; DESIGN.md §12).
type Telemetry = telemetry.Collector

// Telemetry returns the run's telemetry collector, or nil when
// Config.Telemetry was not set.
func (s *System) Telemetry() *Telemetry { return s.m.Telemetry() }

// WriteTrace exports the telemetry event trace as Chrome trace-event
// JSON (loadable in Perfetto as an engine-occupancy timeline). It fails
// when the system was built without Config.Telemetry.
func (s *System) WriteTrace(w io.Writer) error {
	tel := s.m.Telemetry()
	if tel == nil {
		return fmt.Errorf("dtsvliw: telemetry not enabled (set Config.Telemetry)")
	}
	return tel.WriteChromeTrace(w)
}

// OnBlockSaved registers an observer that receives every block the
// Scheduler Unit saves to the VLIW Cache, rendered as a slot grid in the
// style of the paper's Figure 2c. Call before Run.
func (s *System) OnBlockSaved(fn func(dump string)) {
	s.m.BlockHook = func(b *sched.Block) { fn(b.Dump()) }
}

// Halted reports whether the program exited.
func (s *System) Halted() bool { return s.st.Halted }

// ExitCode returns the program's exit code (valid after halt).
func (s *System) ExitCode() uint32 { return s.st.ExitCode }

// Output returns the bytes the program wrote through the putchar trap.
func (s *System) Output() []byte { return s.st.Output }

// Instret returns the number of sequential instructions the run covered
// (the paper's IPC numerator).
func (s *System) Instret() uint64 { return s.m.Stats.Retired }

// DIFStats re-exports DIF machine statistics.
type DIFStats = dif.Stats

// RunDIF runs a built-in workload on the DIF baseline machine (Nair &
// Hopkins), the paper's Figure 9 comparator, and returns its statistics.
func RunDIF(workload string, maxInstrs uint64) (DIFStats, error) {
	w, ok := workloads.ByName(workload)
	if !ok {
		return DIFStats{}, fmt.Errorf("dtsvliw: unknown workload %q", workload)
	}
	st, err := w.NewState(dif.NWin)
	if err != nil {
		return DIFStats{}, err
	}
	m := dif.New(st, maxInstrs)
	if err := m.Run(); err != nil {
		return DIFStats{}, err
	}
	return m.Stats, nil
}

// Table is a formatted experiment result.
type Table = stats.Table

// ExperimentNames lists the reproducible paper experiments in order.
func ExperimentNames() []string { return experiments.DefaultNames() }

// RunExperiment runs one of the experiments ExperimentNames lists, the
// paper's tables and figures among them, or one of the "schedgap" and
// "staticbound" studies. maxInstrs caps the instructions per simulation
// (0 = run every workload to completion).
func RunExperiment(name string, maxInstrs uint64) (*Table, error) {
	r, ok := experiments.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("dtsvliw: unknown experiment %q (have %v)", name, experiments.Names())
	}
	return r(experiments.Options{MaxInstrs: maxInstrs})
}

// Package core integrates the DTSVLIW machine (paper §3, Figure 1): the
// Primary Processor and Scheduler Unit (the Scheduler Engine), the VLIW
// Cache and the VLIW Engine, the Fetch Unit's engine-switching policy, the
// memory hierarchy and exception handling. It also holds the one lockstep
// checker, TestMachine: the sequential test machine of the paper's
// experimental methodology (§4), which TestMode attaches and the
// differential oracle (internal/oracle) attaches through Machine.Lockstep.
package core

import (
	"fmt"
	"hash/fnv"

	"dtsvliw/internal/isa"
	"dtsvliw/internal/mem"
	"dtsvliw/internal/metrics"
	"dtsvliw/internal/optsched"
	"dtsvliw/internal/sched"
	"dtsvliw/internal/telemetry"
	"dtsvliw/internal/vcache"
	"dtsvliw/internal/vliw"
)

// Config parameterises a DTSVLIW machine. IdealConfig/FeasibleConfig
// give the paper's machines; the Table 1 pipeline bubbles and the §3.6
// engine-switch costs, which no experiment varies, are constants of
// package primary.
type Config struct {
	// Block geometry: Width instructions per long instruction, Height
	// long instructions per block.
	Width, Height int
	// FUs assigns a functional-unit class per slot; nil = homogeneous
	// (any instruction in any slot, the paper's geometry studies).
	FUs []isa.FUClass

	NWin int // register windows

	ICache mem.CacheConfig
	DCache mem.CacheConfig

	VCacheKB    int
	VCacheAssoc int

	// NextLIMissPenalty is charged on every block-to-block transition in
	// the VLIW Engine (0 in the ideal studies, 1 in the feasible machine).
	NextLIMissPenalty int

	// StoreScheme selects the VLIW Engine's store-recoverability
	// mechanism: the evaluated checkpoint scheme or the paper's §3.11
	// data-store-list alternative.
	StoreScheme vliw.StoreScheme

	// InterpretedEngine must be false, and Validate refuses true: the
	// VLIW Engine executes only the lowered form each VLIW Cache line
	// records at its block's first entry (DESIGN.md §11). The field
	// remains only because the benchmark module (bench/replay.go) reads
	// it.
	InterpretedEngine bool

	// ExitPrediction enables next-long-instruction prediction (paper §5
	// future work): a last-target predictor keyed by the deviating
	// branch hides the one-cycle trace-exit bubble on a correct
	// prediction.
	ExitPrediction bool

	// NoSourceForwarding disables consumer rewriting to renaming
	// registers in the Scheduler Unit (ablation; see DESIGN.md §5a).
	NoSourceForwarding bool

	// SchedStrategy names the Scheduler Unit's placement policy, one of
	// StrategyNames (DESIGN.md §14): empty = "fcfs", the paper's hardware
	// algorithm; "optimal" repacks every block to its minimum height at
	// flush time (the scheduling-gap oracle); "one-per-block" is the
	// degenerate reference. Validate refuses other names.
	SchedStrategy string

	// SchedNodeBudget bounds search-based strategies per block (the
	// branch-and-bound node budget of the optimal repacker): 0 selects the
	// strategy default, negative removes the bound.
	SchedNodeBudget int

	// Latencies enable the multicycle-instruction extension (the paper's
	// companion study [14]) in both the Scheduler Unit and the Primary
	// Processor; zero or one keeps the Table 1 single-cycle baseline.
	isa.Latencies

	// Telemetry, when non-nil, attaches a cycle-stamped telemetry
	// collector to the machine (DESIGN.md §12): event tracing, per-block
	// profiles and distribution histograms, readable through
	// Machine.Telemetry after the run. Nil keeps every hook on its
	// zero-overhead disabled path.
	Telemetry *telemetry.Config

	// Metrics selects the registry the machine's always-on metrics
	// publisher resolves its instruments against (DESIGN.md §17); nil
	// publishes to the process-wide metrics.Default registry. Metrics are
	// skipped entirely — no publisher is built — when the process-wide
	// switch is off (metrics.SetEnabled(false)) at machine construction.
	Metrics *metrics.Registry

	// TestMode attaches a lockstep TestMachine over a clone of the initial
	// state (paper §4): it compares PC, registers, journaled memory and
	// output at every commit checkpoint, and the full state at halt.
	TestMode bool

	// VerifyBlocks statically verifies every block at save time with the
	// block-legality checker (internal/blockcheck): the scheduler records
	// each block's sequential trace and saveBlock proves the schedule
	// preserves the source dependences before it enters the VLIW Cache,
	// failing the run with a BlockVerifyError otherwise. Off by default:
	// trace recording allocates per block and verification is O(slots²),
	// so the zero-alloc hot paths stay intact only when disabled.
	VerifyBlocks bool

	// Fault injects one deliberate scheduler bug for the oracle's and
	// blockcheck's meta-tests (see sched.Fault). Test-only.
	Fault sched.Fault

	// MaxInstrs stops the simulation after this many sequential
	// instructions (0 = run until the program halts). MaxCycles is a
	// safety limit.
	MaxInstrs uint64
	MaxCycles uint64

	// FastForward executes the first N sequential instructions on the
	// plain interpreter before cycle-accurate simulation begins: no
	// scheduling, no caches, no pipeline pricing, no cycles charged. It
	// skips measurement past a warmup prefix (program initialisation)
	// at interpreter speed. The fast-forwarded prefix still counts
	// toward MaxInstrs and is reported in Stats.FastForwarded; IPC then
	// covers only the measured region. A lockstep test machine retires
	// the prefix at one aggregate checkpoint.
	FastForward uint64
}

// strategies is the table of Scheduler Unit placement policies that
// Config.SchedStrategy names. The first, the paper's FCFS hardware
// algorithm, is also what the empty name selects: its nil sched.Strategy
// skips both hooks.
var strategies = [...]struct {
	name string
	of   func(c Config) sched.Strategy
}{
	{"fcfs", func(Config) sched.Strategy { return nil }},
	{"one-per-block", func(Config) sched.Strategy { return sched.OnePerBlock{} }},
	{"optimal", func(c Config) sched.Strategy { return optsched.Strategy{Budget: c.SchedNodeBudget} }},
}

// StrategyNames lists the names Config.SchedStrategy accepts besides the
// empty one, in table order.
func StrategyNames() []string {
	names := make([]string, len(strategies))
	for i, s := range strategies {
		names[i] = s.name
	}
	return names
}

// schedStrategy returns the placement policy c.SchedStrategy names, and
// false for a name the strategies table does not hold.
func (c Config) schedStrategy() (sched.Strategy, bool) {
	name := c.SchedStrategy
	if name == "" {
		name = strategies[0].name
	}
	for _, s := range strategies {
		if s.name == name {
			return s.of(c), true
		}
	}
	return nil, false
}

// ConfigFingerprint returns a short stable digest of a machine
// configuration with its run-scoped attachments (telemetry collector,
// metrics registry) elided: equal fingerprints mean identical machine
// geometry and behaviour. The digest is stable across processes — Config
// contains no maps or pointers once the attachments are stripped — so it
// keys content-addressed result caches and labels /statusz. It hashes
// the %+v rendering of Config, field names included, so it identifies a
// configuration within one build of the code, not across refactors:
// renaming, moving or deleting a field changes every fingerprint although
// no simulated number changes.
func ConfigFingerprint(cfg Config) string {
	k := cfg
	k.Telemetry = nil
	k.Metrics = nil
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", k)
	return fmt.Sprintf("%016x", h.Sum64())
}

// ConfigError reports a Config field value no machine can run with;
// Reason says why.
type ConfigError struct {
	Field  string
	Value  any
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("core: %s %v invalid (%s)", e.Field, e.Value, e.Reason)
}

// Validate checks the configuration. Every refusal is a *ConfigError
// naming the field and saying why.
func (c Config) Validate() error {
	type field struct {
		name string
		v    int
	}
	if c.NextLIMissPenalty < 0 {
		// A negative cost would cut cycles, or wrap the unsigned cycle
		// counters.
		return &ConfigError{Field: "NextLIMissPenalty", Value: c.NextLIMissPenalty, Reason: "negative cycle cost"}
	}
	for _, f := range [...]field{
		{"LoadLatency", c.LoadLatency},
		{"FPLatency", c.FPLatency},
		{"FPDivLatency", c.FPDivLatency},
	} {
		if f.v < 0 {
			return &ConfigError{Field: f.name, Value: f.v, Reason: "negative latency"}
		}
		if f.v > sched.LatencyLimit {
			return &ConfigError{Field: f.name, Value: f.v,
				Reason: fmt.Sprintf("the Scheduler Unit tracks latencies of at most %d cycles", sched.LatencyLimit)}
		}
	}
	for _, f := range [...]field{
		{"Width", c.Width},
		{"Height", c.Height},
		{"VCacheKB", c.VCacheKB},
		{"VCacheAssoc", c.VCacheAssoc},
	} {
		if f.v <= 0 {
			return &ConfigError{Field: f.name, Value: f.v, Reason: "must be positive"}
		}
	}
	if c.Width > sched.WidthLimit {
		return &ConfigError{Field: "Width", Value: c.Width,
			Reason: fmt.Sprintf("the Scheduler Unit's slot masks hold %d slots", sched.WidthLimit)}
	}
	if c.Width > vliw.MaxBlockSlots/c.Height {
		// Width*Height > MaxBlockSlots, without overflowing the product.
		return &ConfigError{Field: "Width*Height", Value: fmt.Sprintf("%dx%d", c.Width, c.Height),
			Reason: fmt.Sprintf("a block of more than %d slots cannot be lowered", vliw.MaxBlockSlots)}
	}
	if c.NWin < 2 || c.NWin > 32 {
		return &ConfigError{Field: "NWin", Value: c.NWin,
			Reason: "SPARC V7 has 2 to 32 register windows (a 5-bit CWP)"}
	}
	if c.FUs != nil {
		if len(c.FUs) != c.Width {
			return &ConfigError{Field: "FUs", Value: c.FUs,
				Reason: fmt.Sprintf("%d classes for width %d", len(c.FUs), c.Width)}
		}
		for _, fu := range c.FUs {
			if fu > isa.FUAny {
				return &ConfigError{Field: "FUs", Value: c.FUs, Reason: fmt.Sprintf("no FU class %d", fu)}
			}
		}
		if cl, ok := sched.UncoveredClass(c.FUs); ok {
			return &ConfigError{Field: "FUs", Value: c.FUs,
				Reason: fmt.Sprintf("no slot accepts %v instructions", cl)}
		}
	}
	if _, ok := c.schedStrategy(); !ok {
		return &ConfigError{Field: "SchedStrategy", Value: c.SchedStrategy,
			Reason: fmt.Sprintf("no such strategy (have %v)", StrategyNames())}
	}
	if c.StoreScheme > vliw.SchemeStoreList {
		return &ConfigError{Field: "StoreScheme", Value: c.StoreScheme, Reason: "no such store scheme"}
	}
	if c.InterpretedEngine {
		return &ConfigError{Field: "InterpretedEngine", Value: true,
			Reason: "the interpreted VLIW Engine was removed; every block runs lowered"}
	}
	if c.Telemetry != nil {
		if n := c.Telemetry.RingSize; n < 0 || n > telemetry.MaxRingSize {
			return &ConfigError{Field: "Telemetry.RingSize", Value: n,
				Reason: fmt.Sprintf("the event ring holds at most %d events; 0 selects the default %d",
					telemetry.MaxRingSize, telemetry.DefaultRingSize)}
		}
	}
	if !c.Fault.Valid() {
		return &ConfigError{Field: "Fault", Value: c.Fault, Reason: "no such scheduler fault"}
	}
	for _, cc := range [...]struct {
		field string
		cfg   mem.CacheConfig
	}{{"ICache", c.ICache}, {"DCache", c.DCache}} {
		if err := cc.cfg.Validate(); err != nil {
			return &ConfigError{Field: cc.field, Value: cc.cfg, Reason: err.Error()}
		}
	}
	return nil
}

// VCacheConfig derives the VLIW Cache configuration.
func (c Config) VCacheConfig() vcache.Config {
	return vcache.Config{
		SizeKB: c.VCacheKB, Assoc: c.VCacheAssoc,
		Width: c.Width, Height: c.Height,
	}
}

// IdealConfig returns the configuration of the paper's architecture
// studies (§4.1–§4.3): perfect instruction and data caches, a large
// (3072-KB) 4-way VLIW Cache, no next-long-instruction miss penalty,
// and homogeneous functional units.
func IdealConfig(width, height int) Config {
	return Config{
		Width: width, Height: height,
		NWin:        16,
		ICache:      mem.CacheConfig{Perfect: true},
		DCache:      mem.CacheConfig{Perfect: true},
		VCacheKB:    3072,
		VCacheAssoc: 4,
		MaxCycles:   1 << 62,
	}
}

// FeasibleConfig returns the paper's §4.4 feasible machine: 32-KB 4-way
// Instruction Cache and 32-KB direct-mapped Data Cache (1-cycle access,
// 8-cycle miss), a 192-KB 4-way VLIW Cache, 1-cycle next-long-instruction
// miss penalty, and ten non-homogeneous functional units (4 integer, 2
// load/store, 2 floating-point, 2 branch), all with 1-cycle latency.
func FeasibleConfig() Config {
	cfg := IdealConfig(10, 8)
	cfg.FUs = []isa.FUClass{
		isa.FUInt, isa.FUInt, isa.FUInt, isa.FUInt,
		isa.FULoadStore, isa.FULoadStore,
		isa.FUFloat, isa.FUFloat,
		isa.FUBranch, isa.FUBranch,
	}
	cfg.ICache = mem.CacheConfig{SizeBytes: 32 * 1024, LineBytes: 32, Assoc: 4, MissPenalty: 8}
	cfg.DCache = mem.CacheConfig{SizeBytes: 32 * 1024, LineBytes: 32, Assoc: 1, MissPenalty: 8}
	cfg.VCacheKB = 192
	cfg.NextLIMissPenalty = 1
	return cfg
}

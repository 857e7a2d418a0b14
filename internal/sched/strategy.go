package sched

import (
	"fmt"
	"sort"
)

// Strategy is the pluggable placement policy of the Scheduler Unit. The
// scheduling machinery — slot construction, renaming, splits, the
// dependency index, legality predicates, block compaction — is shared; a
// strategy only answers the policy questions the hardware's FCFS
// comparator network hard-wires. Every decision a strategy makes is
// clamped by the legality machinery: a strategy can refuse parallelism
// the scheduler would have exploited, but it can never force an illegal
// placement, so every Block any strategy emits satisfies the same
// dependence, resource and speculation constraints the static verifier
// (internal/blockcheck) checks.
//
// Strategies must be deterministic: the differential oracle and the
// parallel experiment driver both rely on byte-identical re-runs.
type Strategy interface {
	// WantFlushBefore is consulted when a new candidate arrives while the
	// scheduling list is non-empty, before the candidate's slot is built:
	// returning true flushes the current block first, so the candidate
	// starts a fresh one. The FCFS hardware never does this; degenerate
	// reference strategies (one instruction per block) are built from it.
	// The candidate itself is not passed: handing its address through the
	// interface would move Insert's argument to the heap on every call.
	WantFlushBefore(u *Scheduler) bool

	// FinishBlock observes — and may rewrite — every flushed block before
	// it leaves the scheduler, after the slot grid has been compacted but
	// before flush statistics are recorded. A rewriting strategy (the
	// offline optimal repacker in internal/optsched) must keep the block
	// legal: save-time verification and the conformance suites hold every
	// strategy to the blockcheck constraint set.
	FinishBlock(u *Scheduler, b *Block)
}

// StrategyFactory builds a strategy instance for one scheduler. The
// scheduler configuration carries the strategy parameters (StrategyBudget
// for search-based strategies).
type StrategyFactory func(cfg Config) Strategy

// strategyRegistry maps registry names to factories. Registration
// happens in package init functions (this package registers "fcfs" and
// "one-per-block"; internal/optsched registers "optimal"), so lookups
// never race.
var strategyRegistry = map[string]StrategyFactory{}

// RegisterStrategy adds a strategy factory under name. It panics on
// duplicates: strategy names select scheduling behaviour in experiment
// matrices and CI jobs, so a silent overwrite would corrupt results.
func RegisterStrategy(name string, f StrategyFactory) {
	if _, dup := strategyRegistry[name]; dup {
		panic(fmt.Sprintf("sched: strategy %q registered twice", name))
	}
	strategyRegistry[name] = f
}

// StrategyNames lists the registered strategies, sorted.
func StrategyNames() []string {
	names := make([]string, 0, len(strategyRegistry))
	for name := range strategyRegistry { //determinism:allow sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// DefaultStrategy is the strategy an empty Config.Strategy selects: the
// paper's hardware First-Come-First-Served placement.
const DefaultStrategy = "fcfs"

// newStrategy resolves cfg.Strategy against the registry.
func newStrategy(cfg Config) (Strategy, error) {
	name := cfg.Strategy
	if name == "" {
		name = DefaultStrategy
	}
	f, ok := strategyRegistry[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown strategy %q (registered: %v)", name, StrategyNames())
	}
	return f(cfg), nil
}

func init() {
	RegisterStrategy("fcfs", func(Config) Strategy { return fcfsStrategy{} })
	RegisterStrategy("one-per-block", func(Config) Strategy { return onePerBlockStrategy{} })
}

// fcfsStrategy is the paper's hardware algorithm: greedy
// first-come-first-served list scheduling. It never flushes early and
// never rewrites a block, so the scheduler places every candidate in the
// tail element the legality machinery allows and moves it as high as it
// can (TestGoldenFCFSBlocks), and the insertion hot path stays zero-alloc
// (TestDependencyChecksZeroAlloc).
type fcfsStrategy struct{}

func (fcfsStrategy) WantFlushBefore(*Scheduler) bool { return false }
func (fcfsStrategy) FinishBlock(*Scheduler, *Block)  {}

// onePerBlockStrategy is the deliberately dumb reference strategy: every
// block holds exactly one scheduled instruction. It anchors the strategy
// conformance suite (any strategy must stay correct, however little ILP
// it extracts) and gives gap studies an absolute lower bound.
type onePerBlockStrategy struct{}

func (onePerBlockStrategy) WantFlushBefore(u *Scheduler) bool { return len(u.elems) > 0 }
func (onePerBlockStrategy) FinishBlock(*Scheduler, *Block)    {}

// NoteRepack records a FinishBlock rewrite for statistics and telemetry:
// the block went from origLIs to b.NumLIs long instructions, proven
// optimal (versus best-found under an exhausted node budget) after
// visiting nodes search nodes.
func (u *Scheduler) NoteRepack(b *Block, origLIs int, proven bool, nodes uint64) {
	u.Stats.RepackedBlocks++
	u.Stats.RepackSavedLIs += uint64(origLIs - b.NumLIs)
	u.Stats.RepackNodes += nodes
	if proven {
		u.Stats.RepackProven++
	}
	if u.tel != nil {
		u.tel.SchedGap(b.Tag, origLIs, b.NumLIs, proven)
	}
}

package sched

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
// A nil Strategy is the paper's hardware algorithm, greedy
// first-come-first-served list scheduling: the scheduler skips both hooks,
// so it places every candidate in the tail element the legality
// machinery allows and moves it as high as it can (TestGoldenFCFSBlocks),
// and the insertion hot path stays zero-alloc
// (TestDependencyChecksZeroAlloc).
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

// OnePerBlock is the deliberately dumb reference strategy: every block
// holds exactly one scheduled instruction. It anchors the strategy
// conformance suite (any strategy must stay correct, however little ILP
// it extracts) and gives gap studies an absolute lower bound.
type OnePerBlock struct{}

func (OnePerBlock) WantFlushBefore(u *Scheduler) bool { return len(u.elems) > 0 }
func (OnePerBlock) FinishBlock(*Scheduler, *Block)    {}

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

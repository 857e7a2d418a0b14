// Package primary models the timing of the DTSVLIW Primary Processor
// (paper Table 1): a simple four-stage pipeline (fetch, decode, execute,
// write back) with no branch prediction hardware. Not-taken conditional
// branches cost a 3-cycle bubble; an instruction consuming the result of
// the immediately preceding load costs a 1-cycle bubble. Functional
// execution happens elsewhere (package arch); this package only prices
// each instruction in cycles.
package primary

import "dtsvliw/internal/isa"

// The Primary Processor's fixed costs in cycles: the Table 1 pipeline
// bubbles, and the engine-switch costs of paper §3.6 (discarded plus
// refilled pipeline stages), which the DTSVLIW and the DIF machine
// charge alike.
const (
	NotTakenBranchBubble = 3 // a not-taken conditional branch
	LoadUseBubble        = 1 // using the immediately preceding load's result
	SwitchToVLIW         = 2 // handing execution to the VLIW Engine
	SwitchToPrimary      = 3 // handing execution back to the Primary Processor
)

// Pipeline prices instructions.
type Pipeline struct {
	lat isa.Latencies //resetcheck:allow configuration is fixed at construction
	// scoreboard selects the multicycle hazard model: some latency
	// exceeds one cycle, so a consumer of an L-cycle producer stalls
	// until the result is ready, in place of the Table 1 one-cycle
	// load-use bubble (multicycle extension).
	scoreboard bool //resetcheck:allow configuration is fixed at construction

	prevWasLoad bool
	// prevDests is a fixed buffer (no producer writes more than four
	// locations) so pricing never allocates per decoded load.
	prevDests  [4]isa.Loc //resetcheck:allow stale entries are unreadable once FlushState zeroes nPrevDests
	nPrevDests int

	// scoreboard (multicycle mode): in-flight results and when they are
	// ready, in pipeline time.
	now      uint64
	inflight []flight

	Cycles       uint64
	Bubbles      uint64
	BranchStalls uint64
	LoadStalls   uint64
}

type flight struct {
	locs    [4]isa.Loc
	n       int
	readyAt uint64
}

// New builds a Primary Processor timing model under the latency table
// lat.
func New(lat isa.Latencies) *Pipeline {
	return &Pipeline{lat: lat, scoreboard: lat.MaxLatency() > 1}
}

// Price returns the cycle cost of one instruction, given its decoded form,
// dependency effects and outcome. Cache penalties are charged by the
// caller.
func (p *Pipeline) Price(in *isa.Inst, eff isa.Effects, out isa.Outcome) int {
	if p.scoreboard {
		return p.priceScoreboard(in, eff, out)
	}
	cycles := 1
	if p.prevWasLoad && overlap(eff.Reads, p.prevDests[:p.nPrevDests]) {
		cycles += LoadUseBubble
		p.LoadStalls++
		p.Bubbles += LoadUseBubble
	}
	if in.IsCondBranch() && !out.Taken {
		cycles += NotTakenBranchBubble
		p.BranchStalls++
		p.Bubbles += NotTakenBranchBubble
	}
	p.prevWasLoad = in.IsLoad()
	if p.prevWasLoad {
		p.nPrevDests = copy(p.prevDests[:], eff.Writes)
	}
	p.Cycles += uint64(cycles)
	return cycles
}

// priceScoreboard is the multicycle hazard model: the instruction issues
// when its operands' producers have completed.
func (p *Pipeline) priceScoreboard(in *isa.Inst, eff isa.Effects, out isa.Outcome) int {
	issue := p.now + 1
	keep := p.inflight[:0]
	for _, f := range p.inflight {
		if f.readyAt <= p.now {
			continue // retired
		}
		if overlap(eff.Reads, f.locs[:f.n]) && f.readyAt > issue {
			issue = f.readyAt
		}
		keep = append(keep, f)
	}
	p.inflight = keep
	stall := int(issue - (p.now + 1))
	if stall > 0 {
		p.LoadStalls++
		p.Bubbles += uint64(stall)
	}
	cycles := 1 + stall
	if in.IsCondBranch() && !out.Taken {
		cycles += NotTakenBranchBubble
		p.BranchStalls++
		p.Bubbles += NotTakenBranchBubble
	}
	p.now += uint64(cycles)
	if l := p.lat.Latency(in); l > 1 && len(eff.Writes) > 0 {
		f := flight{readyAt: p.now + uint64(l) - 1}
		f.n = copy(f.locs[:], eff.Writes)
		p.inflight = append(p.inflight, f)
	}
	p.Cycles += uint64(cycles)
	return cycles
}

// FlushState clears hazard tracking (used across engine switches, whose
// refill cost is charged separately).
func (p *Pipeline) FlushState() {
	p.prevWasLoad = false
	p.nPrevDests = 0
	p.inflight = p.inflight[:0]
}

// Reset returns the pipeline to its post-construction state (hazard
// tracking, scoreboard clock and all counters), retaining the scoreboard's
// backing storage for reuse.
func (p *Pipeline) Reset() {
	p.FlushState()
	p.now = 0
	p.Cycles, p.Bubbles, p.BranchStalls, p.LoadStalls = 0, 0, 0, 0
}

func overlap(a, b []isa.Loc) bool {
	for _, x := range a {
		for _, y := range b {
			if x.Overlaps(y) {
				return true
			}
		}
	}
	return false
}

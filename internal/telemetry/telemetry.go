// Package telemetry is the cycle-accurate observability layer of the
// DTSVLIW reproduction (DESIGN.md §12). It collects three kinds of data
// while a machine runs:
//
//   - an event trace: a fixed-size ring buffer of compact cycle-stamped
//     records (engine handovers, block lifecycle, splits, exceptions,
//     exit-prediction outcomes, cache misses) exportable as Chrome
//     trace-event JSON for Perfetto;
//   - per-block profiles: a hot-block table keyed by block tag
//     accumulating entries, cycles resided, instructions retired, trace
//     exits, an exit-PC histogram and a slot-utilisation breakdown;
//   - distribution metrics: power-of-two histograms for block length,
//     VLIW-mode run length and scheduler-list residency.
//
// The package depends only on the standard library; the machine layers
// (core, sched, vliw, vcache, mem) hold a *Collector that is nil when
// telemetry is disabled, and every hook site is nil-guarded, so the
// disabled configuration adds no allocation and no measurable work to
// the hot paths (the zero-overhead-off contract, guarded by the
// existing zero-alloc tests and the CI overhead gate).
package telemetry

import "fmt"

// Kind identifies one event type in the trace ring.
type Kind uint8

// Event kinds. The comment after each names the Addr/Aux payload.
const (
	EvNone             Kind = iota
	EvHandoverToVLIW        // Addr = PC hitting the VLIW Cache
	EvHandoverToPrim        // Addr = PC where the Primary Processor resumes
	EvBlockSaved            // Addr = block tag, Aux = long instructions
	EvBlockEntered          // Addr = block tag, Aux = long instructions
	EvBlockExited           // Addr = block tag, Aux = next PC
	EvBlockEvicted          // Addr = victim block tag
	EvBlockInvalidated      // Addr = block tag
	EvSplit                 // Addr = candidate instruction address
	EvAliasing              // Addr = faulting block tag
	EvException             // Addr = faulting block tag
	EvExitPredHit           // Addr = deviating branch, Aux = predicted PC
	EvExitPredMiss          // Addr = deviating branch, Aux = actual PC
	EvICacheMiss            // Addr = instruction address
	EvDCacheMiss            // Addr = data address
	EvVCacheMiss            // Addr = probe address
	EvSchedGap              // Addr = block tag, Aux = FCFS LIs<<16 | repacked LIs, Aux2 = proven
	NumKinds
)

func (k Kind) String() string {
	switch k {
	case EvHandoverToVLIW:
		return "handover-to-vliw"
	case EvHandoverToPrim:
		return "handover-to-primary"
	case EvBlockSaved:
		return "block-saved"
	case EvBlockEntered:
		return "block-entered"
	case EvBlockExited:
		return "block-exited"
	case EvBlockEvicted:
		return "block-evicted"
	case EvBlockInvalidated:
		return "block-invalidated"
	case EvSplit:
		return "split"
	case EvAliasing:
		return "aliasing-exception"
	case EvException:
		return "exception"
	case EvExitPredHit:
		return "exit-pred-hit"
	case EvExitPredMiss:
		return "exit-pred-miss"
	case EvICacheMiss:
		return "icache-miss"
	case EvDCacheMiss:
		return "dcache-miss"
	case EvVCacheMiss:
		return "vcache-miss"
	case EvSchedGap:
		return "sched-gap"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ExitReason distinguishes why the VLIW Engine left a block; it travels
// in EvBlockExited's Aux2 field.
type ExitReason uint8

// Block exit reasons.
const (
	ExitTrace     ExitReason = iota // a branch deviated from the trace
	ExitFallthru                    // last long instruction, followed NBA
	ExitException                   // rollback (aliasing or other)
)

func (r ExitReason) String() string {
	switch r {
	case ExitTrace:
		return "trace-exit"
	case ExitFallthru:
		return "fallthrough"
	case ExitException:
		return "exception"
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// Event is one compact trace record. Cycle is the machine's global cycle
// counter at record time; Addr and Aux carry kind-specific payloads (see
// the Kind constants), Aux2 the ExitReason for EvBlockExited.
type Event struct {
	Cycle uint64
	Addr  uint32
	Aux   uint32
	Kind  Kind
	Aux2  uint8
}

// Config sizes a Collector.
type Config struct {
	// RingSize bounds the event trace ring (rounded up to a power of
	// two; 0 = DefaultRingSize; at most MaxRingSize). When the ring
	// wraps, the oldest events are overwritten and counted as dropped.
	RingSize int
}

// DefaultRingSize holds 8Ki events (192 KiB). The ring must stay
// cache-resident: at 64Ki entries (~1.5 MB) the scattered event writes
// evict the simulator's working set and cost the big-footprint
// workloads (gcc, vortex) >10% ns/instr, breaking the enabled-overhead
// bound. Long timeline exports should raise RingSize explicitly
// (dtsvliw -trace-ring) and pay that cost knowingly.
const DefaultRingSize = 1 << 13

// MaxRingSize is the largest ring a collector is built with: 16Mi events
// (384 MiB). core.Config.Validate refuses larger and negative sizes;
// NewCollector does not check, and its power-of-two rounding never ends
// above 1<<62.
const MaxRingSize = 1 << 24

// Collector accumulates one run's telemetry. It is not safe for
// concurrent use: the DTSVLIW machine is single-threaded and every hook
// fires on the simulation goroutine.
type Collector struct {
	cycle *uint64 // the machine's live cycle counter
	ring  []Event
	mask  uint64
	n     uint64 // total events ever recorded

	profiles map[uint32]*BlockProf
	cur      *BlockProf // block owning subsequent VLIW cycles
	orphan   uint64     // VLIW cycles with no current block (should stay 0)

	vliwEntry uint64 // cycle stamp of the last handover to the VLIW Engine
	inVLIW    bool
	finished  bool

	// Distribution metrics (power-of-two histograms).
	BlockLen  Hist // long instructions per flushed block
	VLIWRun   Hist // cycles per contiguous VLIW Engine residency
	Residency Hist // instructions inserted per block (scheduler-list residency)
}

// NewCollector builds a collector stamping events from the given cycle
// counter (the machine's Stats.Cycles).
func NewCollector(cfg Config, cycle *uint64) *Collector {
	size := cfg.RingSize
	if size <= 0 {
		size = DefaultRingSize
	}
	// Round up to a power of two so the ring index is a mask, keeping
	// the per-event cost to one store and one increment.
	pow := 1
	for pow < size {
		pow <<= 1
	}
	return &Collector{
		cycle:    cycle,
		ring:     make([]Event, pow),
		mask:     uint64(pow - 1),
		profiles: make(map[uint32]*BlockProf),
	}
}

// now returns the current cycle stamp (the machine's live counter, so
// stamps are monotone by construction).
func (c *Collector) now() uint64 { return *c.cycle }

// record appends one event to the ring, overwriting the oldest on wrap.
func (c *Collector) record(k Kind, addr, aux uint32, aux2 uint8) {
	c.ring[c.n&c.mask] = Event{Cycle: *c.cycle, Addr: addr, Aux: aux, Kind: k, Aux2: aux2}
	c.n++
}

// Events returns the retained trace in record order (oldest first). The
// returned slice is a copy.
func (c *Collector) Events() []Event {
	if c.n <= uint64(len(c.ring)) {
		out := make([]Event, c.n)
		copy(out, c.ring[:c.n])
		return out
	}
	out := make([]Event, len(c.ring))
	start := c.n & c.mask
	copy(out, c.ring[start:])
	copy(out[uint64(len(c.ring))-start:], c.ring[:start])
	return out
}

// Recorded returns the total number of events ever recorded.
func (c *Collector) Recorded() uint64 { return c.n }

// Dropped returns how many events the ring overwrote.
func (c *Collector) Dropped() uint64 {
	if c.n <= uint64(len(c.ring)) {
		return 0
	}
	return c.n - uint64(len(c.ring))
}

// RingSize returns the ring capacity in events.
func (c *Collector) RingSize() int { return len(c.ring) }

// --- Machine hooks (core) ---------------------------------------------

// HandoverToVLIW records the Fetch Unit handing the machine to the VLIW
// Engine at pc and opens a VLIW-mode run.
func (c *Collector) HandoverToVLIW(pc uint32) {
	c.record(EvHandoverToVLIW, pc, 0, 0)
	c.vliwEntry = c.now()
	c.inVLIW = true
}

// HandoverToPrimary records the machine returning to the Primary
// Processor at pc and closes the VLIW-mode run.
func (c *Collector) HandoverToPrimary(pc uint32) {
	c.record(EvHandoverToPrim, pc, 0, 0)
	if c.inVLIW {
		c.VLIWRun.Add(c.now() - c.vliwEntry)
		c.inVLIW = false
	}
}

// EnterBlock records the VLIW Engine entering the block tagged tag with
// numLIs long instructions, and makes its profile the owner of
// subsequent VLIW cycles.
func (c *Collector) EnterBlock(tag uint32, numLIs int) {
	c.EnterBlockProf(c.profile(tag), numLIs)
}

// EnterBlockProf is EnterBlock with the profile already resolved. Block
// entry is the hottest telemetry hook (every block the VLIW Engine
// enters fires it), so the VLIW Cache line carries the profile pointer —
// resolved once per save via Profile — and entry skips the map lookup.
func (c *Collector) EnterBlockProf(p *BlockProf, numLIs int) {
	c.record(EvBlockEntered, p.Tag, uint32(numLIs), 0)
	p.Entries++
	c.cur = p
}

// Profile returns (creating on first use) the profile for tag, for hook
// sites that cache the pointer across entries.
func (c *Collector) Profile(tag uint32) *BlockProf { return c.profile(tag) }

// ExitBlock records the engine leaving the current block: reason says
// why, nextPC where sequential execution continues, and advance how many
// sequential instructions the residency covered. The current block keeps
// owning VLIW cycles until the next EnterBlock (recovery and switch
// cycles charge to the block that caused them).
func (c *Collector) ExitBlock(tag uint32, reason ExitReason, nextPC uint32, advance uint64) {
	c.record(EvBlockExited, tag, nextPC, uint8(reason))
	if c.cur == nil {
		return
	}
	c.cur.Instrs += advance
	if reason == ExitTrace {
		c.cur.TraceExits++
		c.cur.exitPC(nextPC)
	}
}

// AddVLIWCycles attributes n VLIW-mode cycles to the current block. The
// sum over all profiles (plus OrphanCycles, which stays zero in a
// correctly wired machine) reconciles exactly with Stats.VLIWCycles.
func (c *Collector) AddVLIWCycles(n uint64) {
	if c.cur != nil {
		c.cur.Cycles += n
		return
	}
	c.orphan += n
}

// OrphanCycles returns VLIW cycles recorded before any block was
// entered (zero when the machine wires EnterBlock before its first
// VLIW-mode cycle accounting).
func (c *Collector) OrphanCycles() uint64 { return c.orphan }

// BlockSaved records the Scheduler Unit saving a block to the VLIW
// Cache, with its static geometry: numLIs long instructions, validOps
// occupied slots, and the per-slot-column occupancy counts in cols (the
// slice is copied).
func (c *Collector) BlockSaved(tag uint32, numLIs, validOps int, cols []uint32) {
	c.record(EvBlockSaved, tag, uint32(numLIs), 0)
	p := c.profile(tag)
	p.Saves++
	p.NumLIs = numLIs
	p.ValidOps = validOps
	if len(cols) > 0 {
		if cap(p.ColOcc) < len(cols) {
			p.ColOcc = make([]uint32, len(cols))
		}
		p.ColOcc = p.ColOcc[:len(cols)]
		copy(p.ColOcc, cols)
	}
}

// ExitPrediction records a next-long-instruction prediction outcome for
// the deviating branch at branchPC.
func (c *Collector) ExitPrediction(hit bool, branchPC, pc uint32) {
	if hit {
		c.record(EvExitPredHit, branchPC, pc, 0)
	} else {
		c.record(EvExitPredMiss, branchPC, pc, 0)
	}
}

// Exception records a VLIW-mode exception rollback of the block tagged
// tag; aliasing distinguishes aliasing exceptions.
func (c *Collector) Exception(tag uint32, aliasing bool) {
	if aliasing {
		c.record(EvAliasing, tag, 0, 0)
	} else {
		c.record(EvException, tag, 0, 0)
	}
}

// CacheMiss records an instruction-, data- or VLIW-cache miss event
// (kind must be EvICacheMiss, EvDCacheMiss or EvVCacheMiss).
func (c *Collector) CacheMiss(kind Kind, addr uint32) {
	c.record(kind, addr, 0, 0)
}

// --- Scheduler hooks (sched) ------------------------------------------

// Split records one scheduler split (copy-instruction creation) for the
// candidate at addr.
func (c *Collector) Split(addr uint32) {
	c.record(EvSplit, addr, 0, 0)
}

// BlockFlushed feeds the distribution histograms when the Scheduler
// Unit flushes a block: numLIs long instructions, inserted instructions
// placed while the scheduling list was resident.
func (c *Collector) BlockFlushed(numLIs int, inserted uint64) {
	c.BlockLen.Add(uint64(numLIs))
	c.Residency.Add(inserted)
}

// SchedGap records a scheduling strategy repacking the block tagged tag
// at flush time: the FCFS schedule held fcfsLIs long instructions, the
// repacked one holds optLIs; proven says the search completed (versus
// best-found under an exhausted node budget). The per-block gap lands in
// the block's profile, so the hot-block report can show which blocks
// FCFS schedules well and which it leaves long.
func (c *Collector) SchedGap(tag uint32, fcfsLIs, optLIs int, proven bool) {
	var p uint8
	if proven {
		p = 1
	}
	c.record(EvSchedGap, tag, uint32(fcfsLIs)<<16|uint32(optLIs), p)
	bp := c.profile(tag)
	bp.FCFSLIs = fcfsLIs
	bp.OptLIs = optLIs
	bp.GapProven = proven
}

// --- Engine hooks (vliw) ----------------------------------------------

// LIExecuted records one long instruction executed by the VLIW Engine
// in the current block, with its committed and annulled operation
// counts (the dynamic slot-utilisation numerator).
func (c *Collector) LIExecuted(committed, annulled int) {
	if c.cur == nil {
		return
	}
	c.cur.LIsExecuted++
	c.cur.OpsCommitted += uint64(committed)
	c.cur.OpsAnnulled += uint64(annulled)
}

// --- VLIW Cache hooks (vcache) ----------------------------------------

// BlockEvicted records a valid block being replaced in the VLIW Cache.
func (c *Collector) BlockEvicted(tag uint32) {
	c.record(EvBlockEvicted, tag, 0, 0)
	c.profile(tag).Evictions++
}

// BlockInvalidated records an aliasing invalidation of a cached block.
func (c *Collector) BlockInvalidated(tag uint32) {
	c.record(EvBlockInvalidated, tag, 0, 0)
}

// Finish closes the collection at the end of a run: an open VLIW-mode
// run is flushed into the run-length histogram. Safe to call more than
// once.
func (c *Collector) Finish() {
	if c.finished {
		return
	}
	c.finished = true
	if c.inVLIW {
		c.VLIWRun.Add(c.now() - c.vliwEntry)
		c.inVLIW = false
	}
}

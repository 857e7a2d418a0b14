package core

import (
	"fmt"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/blockcheck"
	"dtsvliw/internal/isa"
	"dtsvliw/internal/mem"
	"dtsvliw/internal/metrics"
	"dtsvliw/internal/primary"
	"dtsvliw/internal/sched"
	"dtsvliw/internal/telemetry"
	"dtsvliw/internal/vcache"
	"dtsvliw/internal/vliw"

	// Register the optimal-repacking strategy ("optimal") with the
	// Scheduler Unit's strategy registry, so Config.SchedStrategy can
	// select it on any machine.
	_ "dtsvliw/internal/optsched"
)

// Mode identifies which execution engine currently owns the machine
// (paper §3.6: they never operate at the same time).
type Mode uint8

// Execution engines.
const (
	ModePrimary Mode = iota
	ModeVLIW
)

// Machine is a complete DTSVLIW processor.
type Machine struct {
	cfg Config //resetcheck:allow configuration is fixed at construction

	// St is the architectural state shared by the Primary Processor and
	// the VLIW Engine. It is the caller's to reset and reload between
	// runs (see Reset and MachineContext).
	//resetcheck:allow
	St *arch.State
	// Ref is the lockstep sequential test machine (TestMode only).
	Ref *arch.State

	sch  *sched.Scheduler
	vc   *vcache.Cache
	eng  *vliw.Engine
	ic   *mem.Cache
	dc   *mem.Cache
	pipe *primary.Pipeline

	mode      Mode
	predictor map[uint32]uint32 // trace-exit target predictor
	vpc       sched.LongAddr
	// curLine is the VLIW Cache line of the block currently executing
	// (vcache.NoLine outside VLIW mode), the source line for chain-link
	// installation and Follow. Attribution is best-effort: a block save
	// between the probe hit and block entry may relocate the line, which
	// chain edges tolerate by construction (a present edge always targets
	// the line an associative lookup would return; see vcache.Follow).
	curLine int32
	// engRes is runVLIW's reusable ExecLIInto result, fully overwritten
	// by each ExecLIInto call.
	engRes        vliw.Result //resetcheck:allow scratch result, overwritten before every read
	seq           uint64      // sequential instructions covered so far
	drain         int         // long instructions still draining from the last flush
	skipProbe     bool        // suppress one VLIW Cache probe after a handover
	excBudget     uint64      // exception mode: Primary-only instructions left
	pendingExcErr error

	journal []arch.StoreRec // machine-side stores since the last sync

	// effReads/effWrites are scratch buffers for pipeline pricing, reused
	// across stepPrimary calls so footprint computation never allocates.
	effReads  []isa.Loc //resetcheck:allow scratch, truncated at each use
	effWrites []isa.Loc //resetcheck:allow scratch, truncated at each use

	// whereMemo caches the per-PC checkpoint descriptions of the Primary
	// Processor fast path ("primary pc=..."), which would otherwise be
	// formatted once per instruction whenever a CheckpointHook or the
	// test machine observes them. An entry is a pure function of the PC,
	// so the memo survives Reset and stays valid across pooled reuse.
	whereMemo map[uint32]string //resetcheck:allow pure function of the PC, deliberately kept warm

	// tel is the telemetry collector (nil when disabled; every hook site
	// is nil-guarded). telCols is a scratch buffer for per-column slot
	// occupancy at block-save time.
	tel     *telemetry.Collector //resetcheck:allow Reset refuses telemetry machines (MachinePool gates them out)
	telCols []uint32             //resetcheck:allow scratch tied to tel, truncated at each use

	// pub is the always-on metrics publisher (DESIGN.md §17), flushing
	// counter deltas into the configured registry at coarse sync points;
	// nil when metrics are globally disabled. nextFlush is the cycle
	// count the next periodic flush is due at (MaxUint64 when pub is
	// nil), so the Run loop's flush check is a single compare against a
	// field on the machine's own hot cache line rather than a publisher
	// dereference per iteration. flushFull/flushProbe/flushNonSched
	// attribute scheduling-list flushes to their causes — plain
	// owner-local counters like Stats, published by pub.
	pub           *metricsPublisher
	nextFlush     uint64
	flushFull     uint64
	flushProbe    uint64
	flushNonSched uint64

	// lowFree holds lowered-block storage drained from the VLIW Cache by
	// Reset; saveBlock lowers into it before allocating, the way the
	// scheduler reuses drained blocks.
	lowFree []*vliw.LoweredBlock

	// BlockHook, when set, observes every block saved to the VLIW Cache
	// (used by the -dumpblocks tool and by tests).
	BlockHook func(*sched.Block)

	// CheckpointHook, when set, is invoked at every commit checkpoint of
	// the machine — after each Primary Processor instruction, at every
	// block boundary and trace exit in VLIW mode, and after an exception
	// rollback — with the number of sequential instructions newly covered
	// since the previous checkpoint, the machine's current PC, and a
	// description of the checkpoint. A non-nil return aborts the run with
	// that error. The differential oracle (internal/oracle) uses this to
	// lock-step an external reference interpreter without relying on the
	// machine's own TestMode comparison logic.
	CheckpointHook func(advance uint64, pc uint32, where string) error

	Stats Stats
}

// NewMachine builds a DTSVLIW machine over the architectural state st
// (program already loaded, PC and stack initialised). In TestMode the
// reference test machine is cloned from st before execution starts.
func NewMachine(cfg Config, st *arch.State) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sch, err := sched.New(sched.Config{
		Width: cfg.Width, Height: cfg.Height, FUs: cfg.FUs, NWin: cfg.NWin,
		NoForwarding:   cfg.NoSourceForwarding,
		Strategy:       cfg.SchedStrategy,
		StrategyBudget: cfg.SchedNodeBudget,
		LoadLatency:    cfg.LoadLatency,
		FPLatency:      cfg.FPLatency,
		FPDivLatency:   cfg.FPDivLatency,
		// The verifier reconstructs each block's footprints from its
		// sequential trace, so save-time verification needs recording on.
		RecordTrace:           cfg.VerifyBlocks,
		FaultDropCopy:         cfg.FaultDropCopy,
		FaultDropRename:       cfg.FaultDropRename,
		FaultSwapSlots:        cfg.FaultSwapSlots,
		FaultLatencyViolation: cfg.FaultLatencyViolation,
	})
	if err != nil {
		return nil, err
	}
	vc, err := vcache.New(cfg.VCacheConfig())
	if err != nil {
		return nil, err
	}
	ic, err := mem.NewCache(cfg.ICache)
	if err != nil {
		return nil, err
	}
	dc, err := mem.NewCache(cfg.DCache)
	if err != nil {
		return nil, err
	}
	pcfg := cfg.Pipeline
	pcfg.LoadLatency = cfg.LoadLatency
	pcfg.FPLatency = cfg.FPLatency
	pcfg.FPDivLatency = cfg.FPDivLatency
	m := &Machine{
		cfg: cfg, St: st,
		sch: sch, vc: vc, eng: vliw.New(st),
		ic: ic, dc: dc,
		pipe:    primary.New(pcfg),
		curLine: vcache.NoLine,
	}
	m.eng.SetScheme(cfg.StoreScheme)
	if cfg.Telemetry != nil {
		m.tel = telemetry.NewCollector(*cfg.Telemetry, &m.Stats.Cycles)
		m.sch.SetTelemetry(m.tel)
		m.vc.SetTelemetry(m.tel)
		m.eng.SetTelemetry(m.tel)
		m.ic.MissHook = func(addr uint32) { m.tel.CacheMiss(telemetry.EvICacheMiss, addr) }
		m.dc.MissHook = func(addr uint32) { m.tel.CacheMiss(telemetry.EvDCacheMiss, addr) }
	}
	m.nextFlush = ^uint64(0)
	if metrics.Enabled() {
		reg := cfg.Metrics
		if reg == nil {
			reg = metrics.Default()
		}
		m.pub = newMetricsPublisher(reg)
		m.nextFlush = metricsFlushCycles
	}
	if cfg.ExitPrediction {
		m.predictor = make(map[uint32]uint32)
	}
	if cfg.TestMode {
		m.Ref = st.Clone()
		m.Ref.LogStores = true
		st.LogStores = true
	}
	return m, nil
}

// VCache exposes the VLIW Cache (for tools and tests).
func (m *Machine) VCache() *vcache.Cache { return m.vc }

// Scheduler exposes the Scheduler Unit (for tools and tests).
func (m *Machine) Scheduler() *sched.Scheduler { return m.sch }

// Mode returns the engine currently executing.
func (m *Machine) Mode() Mode { return m.mode }

// Telemetry returns the machine's telemetry collector (nil when the
// configuration did not enable one).
func (m *Machine) Telemetry() *telemetry.Collector { return m.tel }

// MismatchError reports a lockstep test-machine divergence: the DTSVLIW
// produced architectural state different from sequential execution.
type MismatchError struct {
	Where string
	Diff  string
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("core: test-machine mismatch at %s: %s", e.Where, e.Diff)
}

func (m *Machine) addCycles(n int, vliwMode bool) {
	m.Stats.Cycles += uint64(n)
	if vliwMode {
		m.Stats.VLIWCycles += uint64(n)
		if m.tel != nil {
			// Attribute every VLIW-mode cycle to the current block profile
			// so the per-block totals reconcile with VLIWCycles exactly.
			m.tel.AddVLIWCycles(uint64(n))
		}
	} else {
		m.Stats.PrimaryCycles += uint64(n)
	}
	m.drain -= n
	if m.drain < 0 {
		m.drain = 0
	}
}

// BlockVerifyError reports a block that failed save-time static
// verification under Config.VerifyBlocks: the scheduler emitted a
// schedule the block-legality checker cannot prove equivalent to its
// sequential source.
type BlockVerifyError struct {
	Report *blockcheck.Report
}

func (e *BlockVerifyError) Error() string {
	return fmt.Sprintf("core: block failed legality verification: %s", e.Report)
}

// LoweringError reports a saved block that vliw.LowerInto refused: it
// holds a non-schedulable operation or an unallocated renaming register,
// or it is too large for the lowered form. The VLIW Engine executes only
// lowered blocks, so the run cannot continue; a correct Scheduler Unit
// under a validated Config never produces one.
type LoweringError struct {
	Tag      uint32
	NumLIs   int
	ValidOps int
}

func (e *LoweringError) Error() string {
	return fmt.Sprintf("core: block %#08x (%d long instructions, %d valid ops) cannot be lowered",
		e.Tag, e.NumLIs, e.ValidOps)
}

// saveBlock sends a finished block to the VLIW Cache, modelling the
// one-long-instruction-per-cycle drain (paper §3.2): a new flush issued
// while the previous block is still draining stalls the Primary
// Processor. The block is lowered once here — the software analogue of
// storing decoded instructions in the cache line (paper §3.4) — and a
// block that does not lower fails the run with a LoweringError. Under
// VerifyBlocks the block must pass static legality verification before
// it is cached.
func (m *Machine) saveBlock(b *sched.Block) error {
	if b == nil {
		return nil
	}
	if m.drain > 0 {
		m.Stats.DrainStalls += uint64(m.drain)
		m.addCycles(m.drain, false)
	}
	m.drain = b.NumLIs
	low := m.lower(b)
	if low == nil {
		return &LoweringError{Tag: b.Tag, NumLIs: b.NumLIs, ValidOps: b.ValidOps}
	}
	if m.cfg.VerifyBlocks {
		if rep := blockcheck.Verify(b, low, m.sch.Config()); !rep.Ok() {
			return &BlockVerifyError{Report: rep}
		}
		m.Stats.BlocksVerified++
	}
	m.vc.Save(b, low)
	m.Stats.BlocksSaved++
	if m.pub != nil {
		m.pub.set.blockLIs.Observe(uint64(b.NumLIs))
	}
	if m.tel != nil {
		// Static slot-utilisation breakdown: occupied slots per column of
		// the saved grid.
		if cap(m.telCols) < m.cfg.Width {
			m.telCols = make([]uint32, m.cfg.Width)
		}
		cols := m.telCols[:m.cfg.Width]
		for i := range cols {
			cols[i] = 0
		}
		for _, li := range b.LIs {
			for j, s := range li {
				if s != nil {
					cols[j]++
				}
			}
		}
		m.tel.BlockSaved(b.Tag, b.NumLIs, b.ValidOps, cols)
	}
	if m.BlockHook != nil {
		m.BlockHook(b)
	}
	return nil
}

// lower lowers b into recycled storage when Reset left some, and into
// fresh storage otherwise. Storage a failed lowering leaves unused goes
// back on the free list.
func (m *Machine) lower(b *sched.Block) *vliw.LoweredBlock {
	var dst *vliw.LoweredBlock
	if n := len(m.lowFree); n > 0 {
		dst = m.lowFree[n-1]
		m.lowFree = m.lowFree[:n-1]
	} else {
		dst = new(vliw.LoweredBlock)
	}
	low := vliw.LowerInto(dst, b, m.cfg.NWin)
	if low == nil {
		m.lowFree = append(m.lowFree, dst)
	}
	return low
}

// beginBlock enters a VLIW Cache entry on the engine.
func (m *Machine) beginBlock(ent vcache.Entry) {
	if m.tel != nil {
		if ent.Prof != nil {
			m.tel.EnterBlockProf(ent.Prof, ent.Blk.NumLIs)
		} else {
			m.tel.EnterBlock(ent.Blk.Tag, ent.Blk.NumLIs)
		}
	}
	m.eng.BeginLowered(ent.Low)
}

// Run executes until the program halts, MaxInstrs sequential instructions
// are covered, or an error (program fault, test-machine mismatch) occurs.
func (m *Machine) Run() error {
	if m.cfg.FastForward > 0 && m.seq == 0 {
		if err := m.fastForward(); err != nil {
			return err
		}
	}
	if m.pub != nil {
		m.pub.set.machinesRunning.Add(1)
		defer m.pub.set.machinesRunning.Add(-1)
	}
	for !m.St.Halted {
		if m.cfg.MaxCycles > 0 && m.Stats.Cycles >= m.cfg.MaxCycles {
			return fmt.Errorf("core: cycle limit %d reached", m.cfg.MaxCycles)
		}
		if m.cfg.MaxInstrs > 0 && m.seq >= m.cfg.MaxInstrs {
			break
		}
		if m.Stats.Cycles >= m.nextFlush {
			// Periodic publish so a live scrape of a long run is never more
			// than one flush interval stale (nextFlush is MaxUint64 when no
			// publisher is attached, so this branch never fires then).
			m.pub.flush(m)
			m.nextFlush = m.Stats.Cycles + metricsFlushCycles
		}
		var err error
		if m.mode == ModePrimary {
			err = m.stepPrimary()
		} else {
			err = m.runVLIW()
		}
		if err != nil {
			return err
		}
	}
	m.Stats.Retired = m.seq
	m.harvestStats()
	if m.Ref != nil && m.St.Halted {
		if err := m.finalCompare(); err != nil {
			return err
		}
	}
	return nil
}

// fastForward executes the Config.FastForward warmup prefix on the plain
// sequential interpreter: no VLIW Cache probes, no scheduling, no cache or
// pipeline pricing, no cycles charged. The prefix counts toward MaxInstrs.
// The lockstep test machine (if any) is advanced by the whole prefix and
// compared once, and the CheckpointHook observes a single aggregate
// checkpoint, so external reference interpreters stay synchronised.
func (m *Machine) fastForward() error {
	n := m.cfg.FastForward
	if m.cfg.MaxInstrs > 0 && n > m.cfg.MaxInstrs {
		n = m.cfg.MaxInstrs
	}
	var done uint64
	for done < n && !m.St.Halted {
		if _, _, err := m.St.StepOutcome(); err != nil {
			return err
		}
		done++
	}
	m.seq += done
	m.Stats.FastForwarded = done
	return m.syncRef(done, m.St.PC, "fast-forward")
}

func (m *Machine) harvestStats() {
	if m.tel != nil {
		m.tel.Finish()
	}
	m.Stats.Sched = m.sch.Stats
	m.Stats.Engine = m.eng.Stats
	m.Stats.ICacheAccesses, m.Stats.ICacheMisses = m.ic.Accesses, m.ic.Misses
	m.Stats.DCacheAccesses, m.Stats.DCacheMisses = m.dc.Accesses, m.dc.Misses
	m.Stats.VCacheHits, m.Stats.VCacheMisses = m.vc.Hits, m.vc.Misses
	m.Stats.VCacheChainHits = m.vc.ChainHits
	m.Stats.VCacheChainLinks = m.vc.ChainLinks
	m.Stats.VCacheChainUnlinks = m.vc.ChainUnlinks
	if m.pub != nil {
		// Final publish: at quiescence the registry counters equal Stats
		// exactly (tested by TestMachineMetricsReconcile).
		m.pub.flush(m)
	}
}

// stepPrimary executes one instruction on the Primary Processor, feeds it
// to the Scheduler Unit, and performs the Fetch Unit's VLIW Cache probe
// (paper §3.6).
func (m *Machine) stepPrimary() error {
	pc := m.St.PC

	// Fetch Unit: probe the VLIW Cache with the address reaching the
	// execute stage. On a hit the VLIW Engine takes over; the instruction
	// is annulled before write-back and re-executed in VLIW mode.
	if !m.skipProbe && m.excBudget == 0 {
		if ent, hitLine, ok := m.vc.LookupLine(pc, m.St.CWP()); ok {
			m.curLine = hitLine
			blk := m.sch.Flush(pc, m.seq)
			if blk != nil {
				m.flushProbe++
			}
			if err := m.saveBlock(blk); err != nil {
				return err
			}
			m.pipe.FlushState()
			m.Stats.Switches++
			m.Stats.SwitchCycles += uint64(m.cfg.SwitchToVLIW)
			m.mode = ModeVLIW
			m.vpc = sched.LongAddr{Addr: pc, Line: 0}
			if m.tel != nil {
				m.tel.HandoverToVLIW(pc)
			}
			// beginBlock before the switch-cycle charge, so telemetry
			// attributes every VLIW-mode cycle to a current block.
			m.beginBlock(ent)
			m.addCycles(m.cfg.SwitchToVLIW, true)
			return nil
		}
	}
	m.skipProbe = false

	cwpBefore := m.St.CWP()
	in, out, err := m.St.StepOutcome()
	if err != nil {
		if m.excBudget > 0 && m.pendingExcErr != nil {
			return fmt.Errorf("core: exception confirmed architecturally at %#08x: %v (first seen as %v)",
				pc, err, m.pendingExcErr)
		}
		return err
	}

	m.effReads, m.effWrites = in.EffectsAppend(cwpBefore, m.cfg.NWin, out.EA,
		m.effReads[:0], m.effWrites[:0])
	cycles := m.pipe.Price(&in, isa.Effects{Reads: m.effReads, Writes: m.effWrites}, out)
	cycles += m.ic.Access(pc)
	if out.HasEA {
		cycles += m.dc.Access(out.EA)
	}
	m.addCycles(cycles, false)

	seqNo := m.seq
	m.seq++

	if m.excBudget > 0 {
		// Exception mode: only the Primary Processor operates (paper
		// §3.11). If the budget expires without the fault repeating,
		// resume normal trace mode.
		m.excBudget--
		if m.excBudget == 0 {
			m.pendingExcErr = nil
		}
	} else if !in.IsSchedulable() {
		// Non-schedulable instructions flush the scheduling list (paper
		// §3.9); the block's successor in the trace is this instruction.
		blk := m.sch.Flush(pc, seqNo)
		if blk != nil {
			m.flushNonSched++
		}
		if err := m.saveBlock(blk); err != nil {
			return err
		}
	} else {
		blk, err := m.sch.Insert(sched.Completed{
			Inst: in, Addr: pc, CWP: cwpBefore, Outcome: out, Seq: seqNo,
		})
		if err != nil {
			return err
		}
		if blk != nil {
			m.flushFull++
		}
		if err := m.saveBlock(blk); err != nil {
			return err
		}
	}

	if m.Ref != nil {
		if err := m.Ref.Step(); err != nil {
			return fmt.Errorf("core: test machine: %w", err)
		}
		if err := m.compare(m.primaryWhere(pc)); err != nil {
			return err
		}
	}
	if m.CheckpointHook == nil {
		// Skip the checkpoint description lookup on the per-instruction
		// fast path when nobody observes it.
		return nil
	}
	return m.notifyCheckpoint(1, m.St.PC, m.primaryWhere(pc))
}

// primaryWhere returns the memoized checkpoint description of a Primary
// Processor step at pc.
func (m *Machine) primaryWhere(pc uint32) string {
	if w, ok := m.whereMemo[pc]; ok {
		return w
	}
	if m.whereMemo == nil {
		m.whereMemo = make(map[uint32]string)
	}
	w := fmt.Sprintf("primary pc=%#08x", pc)
	m.whereMemo[pc] = w
	return w
}

// chainLookup resolves the successor block at a block transition: first
// through the current line's chain links, then by associative lookup —
// installing the missing edge so the next visit follows the link
// directly. Both paths perform identical hit/miss accounting, so
// replacement order and statistics match a plain Lookup exactly. Under
// NoChain every transition takes the plain associative lookup and no
// link is ever followed or installed.
func (m *Machine) chainLookup(pc uint32, cwp uint8) (vcache.Entry, int32, bool) {
	from := m.curLine
	if m.cfg.NoChain || from == vcache.NoLine {
		return m.vc.LookupLine(pc, cwp)
	}
	if ent, line, ok := m.vc.Follow(from, pc, cwp); ok {
		return ent, line, true
	}
	ent, line, ok := m.vc.LookupLine(pc, cwp)
	if ok {
		m.vc.Link(from, pc, cwp, line)
	}
	return ent, line, ok
}

// runVLIW is the VLIW Engine's dispatch loop (DESIGN.md §16): one long
// instruction per iteration, so runs of cache-resident blocks execute
// back-to-back without returning to Run's dispatch. Block transitions
// resolve through chainLookup (chain links on the VLIW Cache lines, or a
// plain associative lookup under NoChain); control returns to the
// machine loop only on a handover to the Primary Processor (lookup miss,
// exception) or when a cycle/instruction limit is reached (Run re-checks
// the limits and produces the canonical outcome). Chaining is
// architecturally invisible: cycle accounting, statistics, telemetry
// ordering and checkpoint sequence are identical with NoChain set.
func (m *Machine) runVLIW() error {
	blk := m.eng.Block()
	res := &m.engRes
	// Without telemetry nothing observes Stats or the drain counter
	// between long instructions, so intra-block cycles accumulate in
	// pending and flush in one addCycles at every point something could
	// look — block transitions, exceptions, limit returns. The flushed
	// totals and the clamped drain decrement compose to exactly the
	// per-LI values (the decrement is monotonic), so Stats are identical;
	// with telemetry attached every cycle is stamped per-LI as before.
	batch := m.tel == nil
	logStores := m.St.LogStores
	pending := 0
	for {
		if m.cfg.MaxCycles > 0 && m.Stats.Cycles+uint64(pending) >= m.cfg.MaxCycles {
			break
		}
		if m.cfg.MaxInstrs > 0 && m.seq >= m.cfg.MaxInstrs {
			break
		}
		m.eng.ExecLIInto(m.vpc.Line, res)

		cycles := 1 + res.RecoveryCycles
		for _, a := range res.MemAddrs {
			cycles += m.dc.Access(a)
		}

		if logStores {
			// The journal only feeds incremental memory comparison
			// (TestMode and the differential oracle); without a consumer
			// it would grow for the whole run. Harmless on the exception
			// path below: an exception result carries no stores.
			m.journal = append(m.journal, res.Stores...)
		}

		if !res.Exception && !res.TraceExit && m.vpc.Line != blk.NBA.Line {
			// Intra-block advance, the hot path of a chained run.
			m.vpc.Line++
			if batch {
				pending += cycles
			} else {
				m.addCycles(cycles, true)
			}
			continue
		}
		if pending > 0 {
			m.addCycles(pending, true)
			pending = 0
		}

		if res.Exception {
			// Recovery already restored the block-entry checkpoint; resume
			// on the Primary Processor at the block's first instruction.
			if m.tel != nil {
				m.tel.Exception(blk.Tag, res.Aliasing)
				m.tel.ExitBlock(blk.Tag, telemetry.ExitException, blk.Tag, 0)
			}
			if res.Aliasing {
				m.Stats.AliasingExceptions++
				m.vc.Invalidate(blk.Tag, blk.EntryCWP)
				m.sch.MarkConservative(blk.Tag, blk.EntryCWP)
			} else {
				m.Stats.OtherExceptions++
				m.excBudget = blk.EndSeq - blk.FirstSeq
				m.pendingExcErr = res.Err
			}
			m.switchToPrimary(blk.Tag, &cycles)
			m.addCycles(cycles, true)
			where := fmt.Sprintf("rollback of block %#08x (%v)", blk.Tag, res.Err)
			if m.Ref != nil {
				// The rollback must land exactly on the test machine's state.
				if err := m.compare(where); err != nil {
					return err
				}
			}
			return m.notifyCheckpoint(0, blk.Tag, where)
		}

		switch {
		case res.TraceExit:
			// A branch left the recorded trace: one-cycle bubble, then
			// fetch from the actual target (paper §3.5). With next-long-
			// instruction prediction (paper §5), a correct last-target
			// prediction hides the bubble.
			m.seq += res.ExitAdvance
			if m.tel != nil {
				m.tel.ExitBlock(blk.Tag, telemetry.ExitTrace, res.NextPC, res.ExitAdvance)
			}
			if m.predictor != nil {
				hit := m.predictor[res.ExitBranch] == res.NextPC
				if hit {
					m.Stats.ExitPredHits++
				} else {
					m.predictor[res.ExitBranch] = res.NextPC
					m.Stats.ExitPredMisses++
					cycles++
				}
				if m.tel != nil {
					m.tel.ExitPrediction(hit, res.ExitBranch, res.NextPC)
				}
			} else {
				cycles++
			}
			cycles += m.eng.FlushPending(m.vpc.Line)
			if err := m.endBlockDrain(); err != nil {
				return err
			}
			if err := m.syncRef(res.ExitAdvance, res.NextPC, "trace exit"); err != nil {
				return err
			}
			if ent, line, ok := m.chainLookup(res.NextPC, m.St.CWP()); ok {
				m.beginBlock(ent)
				m.vpc = sched.LongAddr{Addr: res.NextPC, Line: 0}
				m.curLine = line
				m.addCycles(cycles, true)
				blk = m.eng.Block()
				continue
			}
			m.switchToPrimary(res.NextPC, &cycles)
			m.addCycles(cycles, true)
			return nil

		default:
			// Last long instruction: follow the next block address store.
			advance := blk.EndSeq - blk.FirstSeq
			m.seq += advance
			next := blk.NBA.Addr
			if m.tel != nil {
				m.tel.ExitBlock(blk.Tag, telemetry.ExitFallthru, next, advance)
			}
			cycles += m.eng.FlushPending(m.vpc.Line)
			if err := m.endBlockDrain(); err != nil {
				return err
			}
			if err := m.syncRef(advance, next, "block end"); err != nil {
				return err
			}
			if ent, line, ok := m.chainLookup(next, m.St.CWP()); ok {
				cycles += m.cfg.NextLIMissPenalty
				m.beginBlock(ent)
				m.vpc = sched.LongAddr{Addr: next, Line: 0}
				m.curLine = line
				m.addCycles(cycles, true)
				blk = m.eng.Block()
				continue
			}
			m.switchToPrimary(next, &cycles)
			m.addCycles(cycles, true)
			return nil
		}
	}
	if pending > 0 {
		m.addCycles(pending, true)
	}
	return nil
}

// endBlockDrain transfers the data store list to memory when the
// store-list scheme is active (no-op under the checkpoint scheme).
func (m *Machine) endBlockDrain() error {
	recs, err := m.eng.EndBlock()
	if err != nil {
		return err
	}
	if m.St.LogStores {
		m.journal = append(m.journal, recs...)
	}
	return nil
}

func (m *Machine) switchToPrimary(pc uint32, cycles *int) {
	m.mode = ModePrimary
	m.curLine = vcache.NoLine
	m.St.PC = pc
	m.skipProbe = true
	m.pipe.FlushState()
	m.Stats.Switches++
	m.Stats.SwitchCycles += uint64(m.cfg.SwitchToPrimary)
	*cycles += m.cfg.SwitchToPrimary
	if m.tel != nil {
		m.tel.HandoverToPrimary(pc)
	}
}

// syncRef advances the lockstep test machine by n sequential instructions
// and verifies that it arrives at wantPC with identical architectural
// state.
func (m *Machine) syncRef(n uint64, wantPC uint32, where string) error {
	if m.Ref != nil {
		for i := uint64(0); i < n; i++ {
			if err := m.Ref.Step(); err != nil {
				return fmt.Errorf("core: test machine: %w", err)
			}
		}
		if m.Ref.PC != wantPC {
			return &MismatchError{Where: where,
				Diff: fmt.Sprintf("PC %#08x != test machine %#08x", wantPC, m.Ref.PC)}
		}
		if err := m.compare(where); err != nil {
			return err
		}
	}
	return m.notifyCheckpoint(n, wantPC, where)
}

// notifyCheckpoint invokes the CheckpointHook, if any. pc is the SPARC
// address sequential execution has reached at this checkpoint (m.St.PC is
// stale while the VLIW Engine is executing, so callers pass it
// explicitly).
func (m *Machine) notifyCheckpoint(advance uint64, pc uint32, where string) error {
	if m.CheckpointHook == nil {
		return nil
	}
	return m.CheckpointHook(advance, pc, where)
}

// DrainJournal returns and clears the machine-side store journal: every
// memory write committed since the previous drain, by the Primary
// Processor (requires St.LogStores) and by the VLIW Engine. External
// checkers use the journaled addresses to compare memory incrementally
// instead of scanning the whole image at every checkpoint.
func (m *Machine) DrainJournal() []arch.StoreRec {
	m.journal = append(m.journal, m.St.StoreLog...)
	m.St.StoreLog = m.St.StoreLog[:0]
	j := m.journal
	m.journal = nil
	return j
}

// compare checks registers and journaled memory against the test machine.
func (m *Machine) compare(where string) error {
	if diff, ok := arch.CompareRegisters(m.St, m.Ref); !ok {
		return &MismatchError{Where: where, Diff: diff}
	}
	// Harvest the Primary Processor's journaled stores.
	m.journal = append(m.journal, m.St.StoreLog...)
	m.St.StoreLog = m.St.StoreLog[:0]
	refJ := m.Ref.StoreLog
	m.Ref.StoreLog = m.Ref.StoreLog[:0]
	for _, recs := range [2][]arch.StoreRec{m.journal, refJ} {
		for _, r := range recs {
			a, _ := m.St.Mem.Read(r.Addr, r.Size)
			b, _ := m.Ref.Mem.Read(r.Addr, r.Size)
			if a != b {
				return &MismatchError{Where: where,
					Diff: fmt.Sprintf("mem[%#08x..+%d] %#x != test machine %#x", r.Addr, r.Size, a, b)}
			}
		}
	}
	m.journal = m.journal[:0]
	if string(m.St.Output) != string(m.Ref.Output) {
		return &MismatchError{Where: where,
			Diff: fmt.Sprintf("output %q != test machine %q", m.St.Output, m.Ref.Output)}
	}
	return nil
}

// finalCompare verifies full memory equality after the program halts.
func (m *Machine) finalCompare() error {
	if m.St.Halted != m.Ref.Halted {
		// Let the test machine finish its current instruction stream.
		for !m.Ref.Halted {
			if err := m.Ref.Step(); err != nil {
				return fmt.Errorf("core: test machine: %w", err)
			}
		}
	}
	if m.St.ExitCode != m.Ref.ExitCode {
		return &MismatchError{Where: "halt",
			Diff: fmt.Sprintf("exit code %d != test machine %d", m.St.ExitCode, m.Ref.ExitCode)}
	}
	if addr, diff := m.St.Mem.FirstDiff(m.Ref.Mem); diff {
		return &MismatchError{Where: "halt",
			Diff: fmt.Sprintf("memory differs at %#08x", addr)}
	}
	return nil
}

// Reset returns the machine to its post-NewMachine state so it can run
// another program over the same (caller-reset and reloaded) architectural
// state: scheduler, VLIW Cache, engine, instruction/data caches and
// pipeline are cleared, drained blocks are recycled into the scheduler's
// block pool and their lowered forms into the machine's, hooks are
// detached and Stats are zeroed. Any Block or LoweredBlock obtained
// before Reset is invalid after it. The architectural state itself
// (registers, memory, program) is the caller's to reset — see
// MachineContext. Reset does not support TestMode or telemetry machines
// (the reference clone and collectors are built for one run);
// MachinePool refuses such configurations.
func (m *Machine) Reset() {
	m.vc.Drain(func(ent vcache.Entry) {
		m.sch.RecycleBlock(ent.Blk)
		m.lowFree = append(m.lowFree, ent.Low) // saveBlock never caches a nil Low
	})
	m.sch.Reset()
	m.eng.Reset()
	m.ic.Reset()
	m.dc.Reset()
	m.pipe.Reset()
	m.mode = ModePrimary
	if len(m.predictor) > 0 {
		clear(m.predictor)
	}
	m.vpc = sched.LongAddr{}
	m.curLine = vcache.NoLine
	m.seq = 0
	m.drain = 0
	m.skipProbe = false
	m.excBudget = 0
	m.pendingExcErr = nil
	m.journal = m.journal[:0]
	m.Ref = nil
	m.BlockHook = nil
	m.CheckpointHook = nil
	m.Stats = Stats{}
	m.flushFull, m.flushProbe, m.flushNonSched = 0, 0, 0
	m.nextFlush = ^uint64(0)
	if m.pub != nil {
		m.pub.reset()
		m.nextFlush = metricsFlushCycles
	}
}

// RefInstret returns the test machine's instruction count (the paper's
// IPC numerator); without TestMode it returns the machine's own retired
// count, which is identical by construction.
func (m *Machine) RefInstret() uint64 {
	if m.Ref != nil {
		return m.Ref.Instret
	}
	return m.seq
}

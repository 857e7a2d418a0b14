package core

import (
	"errors"
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
	// test is the lockstep test machine (TestMode, or attached by
	// Lockstep); nil when nothing checks the run.
	test *TestMachine

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

	// effReads/effWrites are scratch buffers for pipeline pricing, reused
	// across stepPrimary calls so footprint computation never allocates.
	effReads  []isa.Loc //resetcheck:allow scratch, truncated at each use
	effWrites []isa.Loc //resetcheck:allow scratch, truncated at each use

	// tel is the telemetry collector (nil when disabled; every hook site
	// is nil-guarded). telCols is a scratch buffer for per-column slot
	// occupancy at block-save time.
	tel     *telemetry.Collector //resetcheck:allow Reset refuses telemetry machines (MachinePool gates them out)
	telCols []uint32             //resetcheck:allow scratch tied to tel, truncated at each use

	// pub is the always-on metrics publisher (DESIGN.md §17), flushing
	// counter deltas into the configured registry at coarse sync points;
	// nil when metrics are globally disabled. stopAt is the cycle count
	// at which the dispatch loops return to Run: the earlier of MaxCycles
	// and the next periodic publish (MaxUint64 when neither applies). Each
	// loop's cycle check is then a single compare against a field on the
	// machine's own hot cache line, and a stretch of chained blocks on the
	// VLIW Engine cannot outlast a flush interval.
	pub    *metricsPublisher
	stopAt uint64

	// lowFree holds lowered-block storage drained from the VLIW Cache by
	// Reset; lower takes storage from it before allocating, the way the
	// scheduler reuses drained blocks.
	lowFree []*vliw.LoweredBlock

	// BlockHook, when set, observes every block saved to the VLIW Cache
	// (used by the -dumpblocks tool and by tests).
	BlockHook func(*sched.Block)

	// CheckpointHook, when set, is invoked at every commit checkpoint of
	// the machine — after each Primary Processor instruction, at every
	// block boundary and trace exit in VLIW mode, and after an exception
	// rollback — with the number of sequential instructions newly covered
	// since the previous checkpoint and the machine's current PC. It runs
	// after the test machine, if one is attached, has checked the
	// checkpoint. A non-nil return aborts the run with that error.
	CheckpointHook func(advance uint64, pc uint32) error

	Stats Stats
}

// NewMachine builds a DTSVLIW machine over the architectural state st
// (program already loaded, PC and stack initialised). In TestMode the
// lockstep test machine runs over a clone of st taken before execution
// starts.
func NewMachine(cfg Config, st *arch.State) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	strat, _ := cfg.schedStrategy() // Validate refused unknown names
	sch, err := sched.New(sched.Config{
		Width: cfg.Width, Height: cfg.Height, FUs: cfg.FUs, NWin: cfg.NWin,
		NoForwarding: cfg.NoSourceForwarding,
		Strategy:     strat,
		Latencies:    cfg.Latencies,
		// The verifier reconstructs each block's footprints from its
		// sequential trace, so save-time verification needs recording on.
		RecordTrace: cfg.VerifyBlocks,
		Fault:       cfg.Fault,
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
	m := &Machine{
		cfg: cfg, St: st,
		sch: sch, vc: vc, eng: vliw.New(st),
		ic: ic, dc: dc,
		pipe:    primary.New(cfg.Latencies),
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
	if metrics.Enabled() {
		reg := cfg.Metrics
		if reg == nil {
			reg = metrics.Default()
		}
		m.pub = newMetricsPublisher(reg)
	}
	m.setStopAt()
	if cfg.ExitPrediction {
		m.predictor = make(map[uint32]uint32)
	}
	if cfg.TestMode {
		m.Lockstep(NewTestMachine(st.Clone()))
	}
	return m, nil
}

// Lockstep attaches t as the machine's lockstep test machine, replacing
// any previous one: every later commit checkpoint advances t by the
// instructions committed and compares the two, and a Run that ends in a
// halt finishes with t's strict halt comparison. t must hold the same
// program at the same point of execution as St. Reset detaches it.
func (m *Machine) Lockstep(t *TestMachine) {
	m.test = t
	m.St.LogStores = true
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

// LoweringError reports a block that vliw.LowerInto refused when the VLIW
// Engine first entered it (or when VerifyBlocks saved it): it holds a
// non-schedulable operation or an unallocated renaming register, or it is
// too large for the lowered form. The VLIW Engine executes only lowered
// blocks, so the run cannot continue; a correct Scheduler Unit under a
// validated Config never produces one.
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
// Processor. The block is cached unlowered; beginBlock lowers it on its
// first entry. Under VerifyBlocks the block must pass static legality
// verification, which checks the lowered form, before it is cached, so
// it is lowered here and cached with that form.
func (m *Machine) saveBlock(b *sched.Block) error {
	if b == nil {
		return nil
	}
	if m.drain > 0 {
		m.Stats.DrainStalls += uint64(m.drain)
		m.addCycles(m.drain, false)
	}
	m.drain = b.NumLIs
	var low *vliw.LoweredBlock
	if m.cfg.VerifyBlocks {
		var err error
		if low, err = m.lower(b); err != nil {
			return err
		}
		if rep := blockcheck.Verify(b, low, m.sch.Config()); !rep.Ok() {
			return &BlockVerifyError{Report: rep}
		}
		m.Stats.BlocksVerified++
	}
	m.vc.Save(b, low)
	m.Stats.BlocksSaved++
	if m.pub != nil {
		m.pub.blockLIs.Observe(uint64(b.NumLIs))
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

// lower lowers b — the software analogue of the decoded instructions a
// VLIW Cache line holds (paper §3.4) — into recycled storage when Reset
// left some, and into fresh storage otherwise. A block that does not
// lower returns a LoweringError, and the storage goes back on the free
// list.
func (m *Machine) lower(b *sched.Block) (*vliw.LoweredBlock, error) {
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
		return nil, &LoweringError{Tag: b.Tag, NumLIs: b.NumLIs, ValidOps: b.ValidOps}
	}
	return low, nil
}

// beginBlock starts the engine on ent, the entry a lookup found in line.
// It is the only place the engine enters a block. A block's first entry
// lowers it and records the lowered form on the line, so a block that
// never runs is never lowered; one that does not lower fails the run
// with a LoweringError.
func (m *Machine) beginBlock(ent vcache.Entry, line int32) error {
	if ent.Low == nil {
		low, err := m.lower(ent.Blk)
		if err != nil {
			return err
		}
		ent.Low = low
		m.vc.SetLowered(line, ent.Blk, low)
	}
	if m.tel != nil {
		if ent.Prof != nil {
			m.tel.EnterBlockProf(ent.Prof, ent.Blk.NumLIs)
		} else {
			m.tel.EnterBlock(ent.Blk.Tag, ent.Blk.NumLIs)
		}
	}
	m.eng.BeginLowered(ent.Low)
	return nil
}

// Run executes until the program halts, MaxInstrs sequential instructions
// are covered, or an error (program fault, limit, test-machine mismatch)
// occurs. On every return Stats and the metrics registry cover the run
// so far.
func (m *Machine) Run() error {
	if m.pub != nil {
		m.pub.running.Add(1)
		defer m.pub.running.Add(-1)
	}
	err := m.run()
	m.harvestStats()
	if err == nil && m.test != nil && m.St.Halted {
		err = m.test.final(m)
	}
	return err
}

// run is Run's dispatch loop.
func (m *Machine) run() error {
	if m.cfg.FastForward > 0 && m.seq == 0 {
		if err := m.fastForward(); err != nil {
			return err
		}
	}
	for !m.St.Halted {
		if m.Stats.Cycles >= m.stopAt {
			if m.cfg.MaxCycles > 0 && m.Stats.Cycles >= m.cfg.MaxCycles {
				return fmt.Errorf("core: cycle limit %d reached", m.cfg.MaxCycles)
			}
			// Periodic publish, so a live scrape of a long run is never
			// much more than one flush interval stale. Without a publisher
			// stopAt is MaxCycles or unreachable, so pub is set here.
			m.syncStats()
			m.pub.flush(&m.Stats, m.mode == ModeVLIW)
			m.setStopAt()
		}
		if m.cfg.MaxInstrs > 0 && m.seq >= m.cfg.MaxInstrs {
			break
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
	return nil
}

// setStopAt schedules the next periodic publish one flush interval from
// now, when there is a publisher, and sets stopAt to the earlier of it
// and MaxCycles.
func (m *Machine) setStopAt() {
	m.stopAt = ^uint64(0)
	if m.pub != nil {
		m.stopAt = m.Stats.Cycles + metricsFlushCycles
	}
	if c := m.cfg.MaxCycles; c > 0 && c < m.stopAt {
		m.stopAt = c
	}
}

// fastForward executes the Config.FastForward warmup prefix on the plain
// sequential interpreter: no VLIW Cache probes, no scheduling, no cache or
// pipeline pricing, no cycles charged. The prefix counts toward MaxInstrs.
// The test machine and the CheckpointHook observe the whole prefix as a
// single aggregate checkpoint.
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
	return m.notifyCheckpoint(done, m.St.PC, site{kind: siteFastForward})
}

func (m *Machine) harvestStats() {
	if m.tel != nil {
		m.tel.Finish()
	}
	m.syncStats()
	if m.pub != nil {
		// Final publish: at quiescence the registry counters equal Stats
		// exactly (tested by TestMachineMetricsReconcile). A machine
		// outside Run executes on neither engine.
		m.pub.flush(&m.Stats, false)
	}
}

// syncStats copies the counters the machine's components keep — the
// Scheduler Unit, the VLIW Engine and Cache, the I/D caches and guest
// memory — into Stats, together with Retired.
func (m *Machine) syncStats() {
	s, vc := &m.Stats, m.vc
	s.Retired = m.seq
	s.Sched = m.sch.Stats
	s.Engine = m.eng.Stats
	s.ICacheAccesses, s.ICacheMisses = m.ic.Accesses, m.ic.Misses
	s.DCacheAccesses, s.DCacheMisses = m.dc.Accesses, m.dc.Misses
	s.MemFaults = m.St.Mem.Faults
	s.VCacheHits, s.VCacheMisses = vc.Hits, vc.Misses
	s.VCacheStores, s.VCacheEvictions, s.VCacheInvalidations = vc.Stores, vc.Replaced, vc.Invalidats
	s.VCacheSetLookups, s.VCacheSetHits = vc.SetLookups, vc.SetHits
	s.VCacheSetEvictions, s.VCacheSetInvalidations = vc.SetEvictions, vc.SetInvalidations
	s.VCacheChainHits, s.VCacheChainLinks, s.VCacheChainUnlinks = vc.ChainHits, vc.ChainLinks, vc.ChainUnlinks
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
				m.Stats.FlushesProbeHit++
			}
			if err := m.saveBlock(blk); err != nil {
				return err
			}
			m.pipe.FlushState()
			m.Stats.Switches++
			m.Stats.SwitchCycles += primary.SwitchToVLIW
			m.mode = ModeVLIW
			m.vpc = sched.LongAddr{Addr: pc, Line: 0}
			if m.tel != nil {
				m.tel.HandoverToVLIW(pc)
			}
			// beginBlock before the switch-cycle charge, so telemetry
			// attributes every VLIW-mode cycle to a current block.
			if err := m.beginBlock(ent, hitLine); err != nil {
				return err
			}
			m.addCycles(primary.SwitchToVLIW, true)
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
			m.Stats.FlushesNonSched++
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
			m.Stats.FlushesBlockFull++
		}
		if err := m.saveBlock(blk); err != nil {
			return err
		}
	}

	return m.notifyCheckpoint(1, m.St.PC, site{kind: sitePrimary, pc: pc})
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
// exception), when the instruction limit is reached, or at stopAt (Run
// re-checks the limits and produces the canonical outcome, or publishes
// and calls back in mid-block). Chaining is
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
	pending := 0
	for {
		if m.Stats.Cycles+uint64(pending) >= m.stopAt {
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

		if res.Err == nil && !res.TraceExit && m.vpc.Line != blk.NBA.Line {
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

		if res.Err != nil {
			var rerr *vliw.RecoveryError
			if errors.As(res.Err, &rerr) {
				// The checkpoint could not be restored, so there is no
				// state to resume from.
				return fmt.Errorf("core: block %#08x: %w", blk.Tag, res.Err)
			}
			// Recovery already restored the block-entry checkpoint; resume
			// on the Primary Processor at the block's first instruction.
			_, aliasing := res.Err.(*vliw.AliasingError)
			if m.tel != nil {
				m.tel.Exception(blk.Tag, aliasing)
				m.tel.ExitBlock(blk.Tag, telemetry.ExitException, blk.Tag, 0)
			}
			if aliasing {
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
			// The rollback must land exactly on the test machine's state.
			return m.notifyCheckpoint(0, blk.Tag, site{kind: siteRollback, pc: blk.Tag, err: res.Err})
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
			if err := m.eng.EndBlock(); err != nil {
				return err
			}
			if err := m.notifyCheckpoint(res.ExitAdvance, res.NextPC, site{kind: siteTraceExit}); err != nil {
				return err
			}
			if ent, line, ok := m.chainLookup(res.NextPC, m.St.CWP()); ok {
				if err := m.beginBlock(ent, line); err != nil {
					return err
				}
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
			if err := m.eng.EndBlock(); err != nil {
				return err
			}
			if err := m.notifyCheckpoint(advance, next, site{kind: siteBlockEnd}); err != nil {
				return err
			}
			if ent, line, ok := m.chainLookup(next, m.St.CWP()); ok {
				cycles += m.cfg.NextLIMissPenalty
				if err := m.beginBlock(ent, line); err != nil {
					return err
				}
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

func (m *Machine) switchToPrimary(pc uint32, cycles *int) {
	m.mode = ModePrimary
	m.curLine = vcache.NoLine
	m.St.PC = pc
	m.skipProbe = true
	m.pipe.FlushState()
	m.Stats.Switches++
	m.Stats.SwitchCycles += primary.SwitchToPrimary
	*cycles += primary.SwitchToPrimary
	if m.tel != nil {
		m.tel.HandoverToPrimary(pc)
	}
}

// notifyCheckpoint reports a commit checkpoint to the test machine and
// the CheckpointHook: advance sequential instructions were committed since
// the previous checkpoint, and pc is the SPARC address sequential
// execution has reached (m.St.PC is stale while the VLIW Engine is
// executing, so callers pass it explicitly). where describes the
// checkpoint for a MismatchError and is formatted only there. It inlines
// to a nil test when nothing observes the run.
func (m *Machine) notifyCheckpoint(advance uint64, pc uint32, where site) error {
	if m.test == nil && m.CheckpointHook == nil {
		return nil
	}
	return m.checkpoint(advance, pc, where)
}

// checkpoint runs the test machine's comparison, then the CheckpointHook.
func (m *Machine) checkpoint(advance uint64, pc uint32, where site) error {
	if m.test != nil {
		if err := m.test.check(m, advance, pc, where); err != nil {
			return err
		}
	}
	if m.CheckpointHook != nil {
		return m.CheckpointHook(advance, pc)
	}
	return nil
}

// Reset returns the machine to its post-NewMachine state so it can run
// another program over the same (caller-reset and reloaded) architectural
// state: scheduler, VLIW Cache, engine, instruction/data caches and
// pipeline are cleared, drained blocks are recycled into the scheduler's
// block pool and their lowered forms into the machine's, the test machine
// and hooks are detached and Stats are zeroed. Any Block or LoweredBlock
// obtained before Reset is invalid after it. The architectural state
// itself (registers, memory, program) is the caller's to reset — see
// MachineContext. Reset does not support TestMode or telemetry machines
// (the test machine's clone and collectors are built for one run);
// MachinePool refuses such configurations.
func (m *Machine) Reset() {
	m.vc.Drain(func(ent vcache.Entry) {
		m.sch.RecycleBlock(ent.Blk)
		if ent.Low != nil { // nil for a block never entered
			m.lowFree = append(m.lowFree, ent.Low)
		}
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
	m.test = nil
	m.BlockHook = nil
	m.CheckpointHook = nil
	m.Stats = Stats{}
	if m.pub != nil {
		m.pub.reset()
	}
	m.setStopAt()
}

package core

import (
	"fmt"
	"io"
	"strings"

	"dtsvliw/internal/sched"
	"dtsvliw/internal/vcache"
	"dtsvliw/internal/vliw"
)

// Stats aggregates a DTSVLIW run. IPC and the Table 3 columns derive from
// these counters. Stats owns every counter the machine reports: the
// metrics registry and the run summary are derived from it through
// counterTable.
type Stats struct {
	Cycles        uint64
	PrimaryCycles uint64
	VLIWCycles    uint64
	SwitchCycles  uint64
	DrainStalls   uint64 // Primary stalled on an in-flight block flush

	Retired uint64 // sequential instructions covered (the IPC numerator)

	// FastForwarded counts the warmup prefix executed at interpreter
	// speed under Config.FastForward: included in Retired, charged no
	// cycles.
	FastForwarded uint64

	Switches           uint64 // engine handovers (both directions)
	BlocksSaved        uint64
	BlocksVerified     uint64 // blocks proven legal at save time (VerifyBlocks)
	AliasingExceptions uint64
	OtherExceptions    uint64

	// Scheduling-list flushes by cause.
	FlushesBlockFull uint64 // the block filled
	FlushesProbeHit  uint64 // a VLIW Cache probe hit handed over to the engine
	FlushesNonSched  uint64 // a non-schedulable instruction

	// Next-long-instruction prediction outcomes (when enabled).
	ExitPredHits   uint64
	ExitPredMisses uint64

	ICacheAccesses, ICacheMisses uint64
	DCacheAccesses, DCacheMisses uint64
	MemFaults                    uint64 // accesses to unmapped guest memory

	VCacheHits, VCacheMisses uint64
	VCacheStores             uint64 // blocks stored
	VCacheEvictions          uint64 // valid blocks evicted by replacement
	VCacheInvalidations      uint64 // blocks invalidated by aliasing exceptions

	// VLIW Cache activity by set group: group g covers the g-th of
	// vcache.SetGroups contiguous ranges of sets.
	VCacheSetLookups, VCacheSetHits            [vcache.SetGroups]uint64
	VCacheSetEvictions, VCacheSetInvalidations [vcache.SetGroups]uint64

	// Nothing sets these three: the machine has no chain links since
	// every block transition became a VLIW Cache lookup (DESIGN.md
	// §16). They stay, always zero, because the benchmark module
	// (bench/trace.go) reads two of them and the Stats golden renders
	// all three.
	VCacheChainHits    uint64
	VCacheChainLinks   uint64
	VCacheChainUnlinks uint64

	Sched  sched.Stats
	Engine vliw.Stats
}

// counterRow is one row of the counter table: a metric family, its help
// text, and the Stats value it reports.
type counterRow struct {
	name, help string
	get        func(*Stats) uint64
}

// counterTable lists every scalar counter of Stats. The metrics
// publisher registers and publishes one registry counter per row, and
// WriteCounters prints the rows.
var counterTable = []counterRow{
	{"dtsvliw_machine_cycles_total", "total simulated cycles", func(s *Stats) uint64 { return s.Cycles }},
	{"dtsvliw_machine_primary_cycles_total", "cycles spent in the Primary Processor", func(s *Stats) uint64 { return s.PrimaryCycles }},
	{"dtsvliw_machine_vliw_cycles_total", "cycles spent in the VLIW Engine", func(s *Stats) uint64 { return s.VLIWCycles }},
	{"dtsvliw_machine_switch_cycles_total", "cycles charged to engine handovers", func(s *Stats) uint64 { return s.SwitchCycles }},
	{"dtsvliw_machine_drain_stall_cycles_total", "Primary cycles stalled on an in-flight block flush", func(s *Stats) uint64 { return s.DrainStalls }},
	{"dtsvliw_machine_instrs_total", "sequential instructions covered", func(s *Stats) uint64 { return s.Retired }},
	{"dtsvliw_machine_fast_forwarded_instrs_total", "warmup instructions executed at interpreter speed", func(s *Stats) uint64 { return s.FastForwarded }},
	{"dtsvliw_machine_switches_total", "engine handovers, both directions", func(s *Stats) uint64 { return s.Switches }},
	{"dtsvliw_machine_blocks_saved_total", "blocks saved to the VLIW Cache", func(s *Stats) uint64 { return s.BlocksSaved }},
	{"dtsvliw_machine_blocks_verified_total", "blocks proven legal at save time", func(s *Stats) uint64 { return s.BlocksVerified }},
	{"dtsvliw_machine_aliasing_exceptions_total", "aliasing exceptions (block invalidated, rescheduled conservatively)", func(s *Stats) uint64 { return s.AliasingExceptions }},
	{"dtsvliw_machine_other_exceptions_total", "non-aliasing exceptions (rollback to Primary-only execution)", func(s *Stats) uint64 { return s.OtherExceptions }},
	{"dtsvliw_machine_exit_pred_hits_total", "next-long-instruction predictions that hit", func(s *Stats) uint64 { return s.ExitPredHits }},
	{"dtsvliw_machine_exit_pred_misses_total", "next-long-instruction predictions that missed", func(s *Stats) uint64 { return s.ExitPredMisses }},
	{"dtsvliw_sched_flushes_block_full_total", "scheduling-list flushes because the block filled", func(s *Stats) uint64 { return s.FlushesBlockFull }},
	{"dtsvliw_sched_flushes_probe_hit_total", "scheduling-list flushes on a VLIW Cache probe hit", func(s *Stats) uint64 { return s.FlushesProbeHit }},
	{"dtsvliw_sched_flushes_non_schedulable_total", "scheduling-list flushes on a non-schedulable instruction", func(s *Stats) uint64 { return s.FlushesNonSched }},

	{"dtsvliw_icache_accesses_total", "Instruction Cache accesses", func(s *Stats) uint64 { return s.ICacheAccesses }},
	{"dtsvliw_icache_misses_total", "Instruction Cache misses", func(s *Stats) uint64 { return s.ICacheMisses }},
	{"dtsvliw_dcache_accesses_total", "Data Cache accesses", func(s *Stats) uint64 { return s.DCacheAccesses }},
	{"dtsvliw_dcache_misses_total", "Data Cache misses", func(s *Stats) uint64 { return s.DCacheMisses }},
	{"dtsvliw_mem_page_faults_total", "accesses to unmapped memory", func(s *Stats) uint64 { return s.MemFaults }},

	{"dtsvliw_vcache_lookups_total", "VLIW Cache lookups (hits + misses)", func(s *Stats) uint64 { return s.VCacheHits + s.VCacheMisses }},
	{"dtsvliw_vcache_hits_total", "VLIW Cache hits", func(s *Stats) uint64 { return s.VCacheHits }},
	{"dtsvliw_vcache_stores_total", "blocks stored into the VLIW Cache", func(s *Stats) uint64 { return s.VCacheStores }},
	{"dtsvliw_vcache_evictions_total", "valid blocks evicted by replacement", func(s *Stats) uint64 { return s.VCacheEvictions }},
	{"dtsvliw_vcache_invalidations_total", "blocks invalidated (aliasing exceptions)", func(s *Stats) uint64 { return s.VCacheInvalidations }},

	{"dtsvliw_sched_inserted_total", "instructions placed in the scheduling list", func(s *Stats) uint64 { return s.Sched.Inserted }},
	{"dtsvliw_sched_ignored_total", "nops and unconditional branches dropped", func(s *Stats) uint64 { return s.Sched.Ignored }},
	{"dtsvliw_sched_splits_total", "instruction splits", func(s *Stats) uint64 { return s.Sched.Splits }},
	{"dtsvliw_sched_moveups_total", "move-up placements", func(s *Stats) uint64 { return s.Sched.MoveUps }},
	{"dtsvliw_sched_installs_total", "slot installs", func(s *Stats) uint64 { return s.Sched.Installs }},
	{"dtsvliw_sched_blocks_flushed_total", "blocks flushed from the scheduling list", func(s *Stats) uint64 { return s.Sched.BlocksFlushed }},
	{"dtsvliw_sched_flushed_lis_total", "long instructions in flushed blocks", func(s *Stats) uint64 { return s.Sched.FlushedLIs }},
	{"dtsvliw_sched_flushed_slots_total", "valid operations in flushed blocks", func(s *Stats) uint64 { return s.Sched.FlushedSlots }},
	{"dtsvliw_sched_conservative_blocks_total", "blocks rescheduled conservatively after aliasing", func(s *Stats) uint64 { return s.Sched.ConservativeBl }},
	{"dtsvliw_sched_repacked_blocks_total", "blocks repacked by a non-FCFS strategy", func(s *Stats) uint64 { return s.Sched.RepackedBlocks }},
	{"dtsvliw_sched_repack_saved_lis_total", "long instructions removed by repacking", func(s *Stats) uint64 { return s.Sched.RepackSavedLIs }},
	{"dtsvliw_sched_repack_proven_blocks_total", "repacked blocks proven optimal within the search budget", func(s *Stats) uint64 { return s.Sched.RepackProven }},
	{"dtsvliw_sched_repack_search_nodes_total", "search nodes visited by repacking", func(s *Stats) uint64 { return s.Sched.RepackNodes }},

	{"dtsvliw_engine_lis_executed_total", "long instructions executed by the VLIW Engine", func(s *Stats) uint64 { return s.Engine.LIsExecuted }},
	{"dtsvliw_engine_ops_committed_total", "operations committed by the VLIW Engine", func(s *Stats) uint64 { return s.Engine.OpsCommitted }},
	{"dtsvliw_engine_ops_annulled_total", "operations annulled by an earlier trace-exit branch", func(s *Stats) uint64 { return s.Engine.OpsAnnulled }},
	{"dtsvliw_engine_trace_exits_total", "branches that left the recorded trace", func(s *Stats) uint64 { return s.Engine.TraceExits }},
	{"dtsvliw_engine_blocks_entered_total", "blocks entered by the VLIW Engine", func(s *Stats) uint64 { return s.Engine.BlocksEntered }},
	{"dtsvliw_engine_copies_executed_total", "copy instructions executed by the VLIW Engine", func(s *Stats) uint64 { return s.Engine.CopiesExecuted }},
}

// setGroupRow is a per-set-group row of the counter table: one labelled
// series per VLIW Cache set group.
type setGroupRow struct {
	name, help string
	get        func(*Stats) *[vcache.SetGroups]uint64
}

// setGroupTable lists the per-set-group counter arrays of Stats.
var setGroupTable = []setGroupRow{
	{"dtsvliw_vcache_set_lookups_total", "VLIW Cache lookups by set group", func(s *Stats) *[vcache.SetGroups]uint64 { return &s.VCacheSetLookups }},
	{"dtsvliw_vcache_set_hits_total", "VLIW Cache hits by set group", func(s *Stats) *[vcache.SetGroups]uint64 { return &s.VCacheSetHits }},
	{"dtsvliw_vcache_set_evictions_total", "VLIW Cache evictions by set group", func(s *Stats) *[vcache.SetGroups]uint64 { return &s.VCacheSetEvictions }},
	{"dtsvliw_vcache_set_invalidations_total", "VLIW Cache invalidations by set group", func(s *Stats) *[vcache.SetGroups]uint64 { return &s.VCacheSetInvalidations }},
}

// WriteCounters writes every nonzero scalar counter of s, one
// "name: value" line per counter-table row, in table order. A row's name
// is its metric family without the "dtsvliw_" prefix and "_total" suffix.
func (s *Stats) WriteCounters(w io.Writer) error {
	for _, r := range counterTable {
		v := r.get(s)
		if v == 0 {
			continue
		}
		name := strings.TrimSuffix(strings.TrimPrefix(r.name, "dtsvliw_"), "_total")
		if _, err := fmt.Fprintf(w, "%-31s %d\n", name+":", v); err != nil {
			return err
		}
	}
	return nil
}

// IPC returns the paper's performance index: sequential instructions (as
// counted by the test machine) divided by DTSVLIW cycles.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// VLIWCycleFraction returns the fraction of cycles spent in the VLIW
// Engine (Table 3's "VLIW Engine Execution Cycles").
func (s *Stats) VLIWCycleFraction() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.VLIWCycles) / float64(s.Cycles)
}

// SlotUtilisation returns the fraction of block slots holding valid
// instructions (paper reports ~33% on average). The geometry comes from
// the scheduler's own stats, recorded at construction.
func (s *Stats) SlotUtilisation() float64 {
	return s.Sched.SlotUtilisation()
}

// ExitPredAccuracy returns the next-long-instruction predictor's hit
// rate (0 when prediction is disabled or never exercised).
func (s *Stats) ExitPredAccuracy() float64 {
	total := s.ExitPredHits + s.ExitPredMisses
	if total == 0 {
		return 0
	}
	return float64(s.ExitPredHits) / float64(total)
}

// VCacheHitRate returns the Fetch Unit's VLIW Cache hit rate.
func (s *Stats) VCacheHitRate() float64 {
	total := s.VCacheHits + s.VCacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.VCacheHits) / float64(total)
}

// SwitchRate returns engine handovers (both directions) per thousand
// sequential instructions.
func (s *Stats) SwitchRate() float64 {
	if s.Retired == 0 {
		return 0
	}
	return 1000 * float64(s.Switches) / float64(s.Retired)
}

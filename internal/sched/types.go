// Package sched implements the DTSVLIW Scheduler Unit (paper §3.2–§3.3,
// §3.7–§3.9): the scheduling list, the hardware First-Come-First-Served
// list-scheduling algorithm with move-up/install/split decisions, register
// and memory renaming via copy instructions, branch tags, load/store order
// fields and cross bits, and long-instruction address generation.
package sched

import (
	"fmt"

	"dtsvliw/internal/isa"
)

// LongAddr is a long-instruction address (paper §3.3): a SPARC ISA address
// field plus a line index selecting one long instruction within a block.
type LongAddr struct {
	Addr uint32
	Line int
}

func (a LongAddr) String() string { return fmt.Sprintf("%#08x.%d", a.Addr, a.Line) }

// RenameClass distinguishes the renaming-register files of the machine
// (Table 3 reports integer, floating-point, flag and memory renaming
// registers; Y and CWP renames exist for completeness and are counted
// separately).
type RenameClass uint8

// Renaming register classes.
const (
	RenInt RenameClass = iota
	RenFP
	RenFlag // icc and fcc
	RenMem
	RenY
	RenCWP
	NumRenameClasses
)

func (c RenameClass) String() string {
	switch c {
	case RenInt:
		return "int"
	case RenFP:
		return "fp"
	case RenFlag:
		return "flag"
	case RenMem:
		return "mem"
	case RenY:
		return "y"
	case RenCWP:
		return "cwp"
	}
	return "?"
}

// classOf maps an architectural location to its renaming class.
func classOf(l isa.Loc) RenameClass {
	switch l.Kind {
	case isa.LocIReg:
		return RenInt
	case isa.LocFReg:
		return RenFP
	case isa.LocICC, isa.LocFCC:
		return RenFlag
	case isa.LocMem:
		return RenMem
	case isa.LocY:
		return RenY
	default:
		return RenCWP
	}
}

// RenameReg names one renaming register within a block.
type RenameReg struct {
	Class RenameClass
	Idx   uint16
}

// RenamePair associates an architectural location with the renaming
// register holding its value: on a producer slot the pair redirects the
// write; on a copy slot the pair commits the renamed value back.
type RenamePair struct {
	Loc isa.Loc
	Reg RenameReg
}

// RenLoc returns the dependency location of a renaming register.
func RenLoc(r RenameReg) isa.Loc {
	return isa.Loc{Kind: isa.LocRen, Idx: r.Idx, Addr: uint32(r.Class)}
}

// Slot is one operation within a long instruction: either a (possibly
// output-renamed) scheduled instruction or a copy instruction created by a
// split (paper §3.2).
// Fields are ordered to minimise padding: slots are the machine's bulk
// data structure (every block holds Width×NumLIs of them).
type Slot struct {
	Inst isa.Inst
	Addr uint32 // SPARC address of the original instruction
	Seq  uint64 // global program-order sequence number

	// Renames lists outputs redirected to renaming registers by splits.
	Renames []RenamePair

	// SrcRenames lists source operands rewritten to read renaming
	// registers directly: a consumer of a split instruction's result
	// depends on the producer, not on its copy (paper Figure 2, where
	// the rescheduled subcc reads r32).
	SrcRenames []RenamePair

	// Copies lists the renaming registers a copy instruction commits to
	// architectural locations (IsCopy below).
	Copies []RenamePair

	reads  []isa.Loc // dependency footprint, renames applied
	writes []isa.Loc

	// BrTarget records the taken-branch target (conditional and indirect
	// branches; BrTaken below).
	BrTarget uint32

	// Lat is the execution latency in cycles (long instructions); the
	// result becomes readable Lat long instructions after issue.
	Lat int32

	// MemAddr/MemSize/Order describe the memory access observed during
	// scheduling (paper §3.10).
	MemAddr uint32
	MemSize uint8
	Order   uint16 // load/store insertion order within the block

	CWP uint8 // window pointer accompanying the instruction (paper §3.9)

	// Tag is the branch tag (paper §3.8): the slot commits only if every
	// conditional/indirect branch in the same long instruction with a
	// smaller tag follows its recorded direction.
	Tag uint8

	IsCopy     bool // copy instruction created by a split
	BrTaken    bool // recorded branch direction
	IsMem      bool
	IsStore    bool
	Cross      bool // cross bit (paper §3.10)
	MemRenamed bool // store whose memory write moved to a memory copy
}

// LatOr1 returns the slot's latency, defaulting to 1 (copies and
// hand-built slots).
func (s *Slot) LatOr1() int {
	if s.Lat < 1 {
		return 1
	}
	return int(s.Lat)
}

// Reads returns the slot's architectural read set (renaming registers are
// private to the block and never appear).
func (s *Slot) Reads() []isa.Loc { return s.reads }

// Writes returns the slot's architectural write set after renaming.
func (s *Slot) Writes() []isa.Loc { return s.writes }

// SrcRenameTarget reports whether the slot reads location l from a
// renaming register instead of the architectural location (source
// forwarding, paper Figure 2: the rescheduled consumer of a split
// instruction's result reads the renaming register directly). It is the
// single definition of source-operand matching shared by block lowering
// and the block-legality checker.
func (s *Slot) SrcRenameTarget(l isa.Loc) (RenameReg, bool) {
	for _, p := range s.SrcRenames {
		if p.Loc == l {
			return p.Reg, true
		}
	}
	return RenameReg{}, false
}

// RenameTarget reports whether the slot's writes to location l are
// redirected to a renaming register by a split (paper §3.7). Register
// locations match on their physical index; a memory renaming register
// captures every memory write of the slot regardless of the runtime
// address. Block lowering resolves every renamed write through it.
func (s *Slot) RenameTarget(l isa.Loc) (RenameReg, bool) {
	for _, p := range s.Renames {
		if p.Loc.Kind == l.Kind && (l.Kind != isa.LocIReg && l.Kind != isa.LocFReg || p.Loc.Idx == l.Idx) {
			if l.Kind == isa.LocMem {
				return p.Reg, true
			}
			if p.Loc == l {
				return p.Reg, true
			}
		}
	}
	return RenameReg{}, false
}

// IsCondOrIndirectBranch reports whether the slot establishes a control
// dependency (paper §3.8: only conditional and indirect branches do).
func (s *Slot) IsCondOrIndirectBranch() bool {
	if s.IsCopy {
		return false
	}
	return s.Inst.IsCondBranch() || s.Inst.IsIndirectBranch()
}

// String renders the slot for debugging and trace dumps.
func (s *Slot) String() string {
	if s == nil {
		return "--------"
	}
	if s.IsCopy {
		str := "COPY"
		for _, c := range s.Copies {
			str += fmt.Sprintf(" %v->%v%d", c.Loc, c.Reg.Class, c.Reg.Idx)
		}
		return str
	}
	str := s.Inst.Disasm(s.Addr)
	if len(s.Renames) > 0 {
		str += " [ren"
		for _, r := range s.Renames {
			str += fmt.Sprintf(" %v->%v%d", r.Loc, r.Reg.Class, r.Reg.Idx)
		}
		str += "]"
	}
	return str
}

// Block is one finished block of long instructions on its way to (or in)
// the VLIW Cache.
type Block struct {
	Tag      uint32    // SPARC address of the first instruction placed
	EntryCWP uint8     // window pointer at block entry (part of the cache tag)
	LIs      [][]*Slot // NumLIs long instructions of Width slots (nil = empty)
	NumLIs   int
	NBA      LongAddr // next block address store (paper §3.4)

	ValidOps int // occupied slots, for utilisation statistics
	Renames  [NumRenameClasses]uint16
	Splits   int

	// FirstSeq/EndSeq delimit the block's span of the completed-
	// instruction sequence, including ignored nops and unconditional
	// branches inside the trace: re-executing the block covers exactly
	// EndSeq-FirstSeq sequential instructions. The lockstep test machine
	// advances by this count at block boundaries.
	FirstSeq uint64
	EndSeq   uint64
	// Conservative records that the block was scheduled with load/store
	// reordering disabled after an aliasing exception (paper §3.11).
	Conservative bool

	// Trace is the sequential instruction trace the block was scheduled
	// from, recorded only under Config.RecordTrace: one Completed per
	// sequence number in [FirstSeq, EndSeq), in program order, including
	// the ignored nops and unconditional branches inside the span. The
	// static verifier (internal/blockcheck) replays it to prove the
	// schedule legal without execution. Nil when recording is off.
	Trace []Completed
}

// Dump renders the block as a slot grid in the style of the paper's
// Figure 2c, for debugging and the -dumpblocks tool.
func (b *Block) Dump() string {
	out := fmt.Sprintf("block %#08x cwp=%d LIs=%d nba=%v span=[%d,%d) splits=%d\n",
		b.Tag, b.EntryCWP, b.NumLIs, b.NBA, b.FirstSeq, b.EndSeq, b.Splits)
	for i := 0; i < b.NumLIs; i++ {
		out += fmt.Sprintf("  LI%-2d", i)
		for _, s := range b.LIs[i] {
			out += fmt.Sprintf(" | %-30s", s.String())
		}
		out += "\n"
	}
	return out
}

// Completed is one instruction handed to the Scheduler Unit by the Primary
// Processor after execution, together with the runtime information the
// scheduler records in the block.
type Completed struct {
	Inst    isa.Inst
	Addr    uint32
	CWP     uint8 // window pointer before execution
	Outcome isa.Outcome
	Seq     uint64
}

// Config parameterises the Scheduler Unit.
type Config struct {
	Width  int // instructions per long instruction
	Height int // long instructions per block (the "block size" constant)
	// FUs assigns a functional-unit class to each slot; nil means every
	// slot accepts every instruction (the paper's ideal geometry runs).
	FUs  []isa.FUClass
	NWin int // register windows (physical register resolution)

	// Strategy selects the placement policy by registry name (see
	// RegisterStrategy); empty selects DefaultStrategy, the paper's FCFS
	// hardware algorithm. New fails on unregistered names.
	Strategy string

	// StrategyBudget bounds the work of search-based strategies (the
	// branch-and-bound node budget of the optimal repacker); zero selects
	// the strategy's default. Ignored by strategies that do not search.
	StrategyBudget int

	// NoForwarding disables the rewrite of consumers' source operands to
	// renaming registers (paper Figure 2's "subcc r32"). Ablation only:
	// consumers then wait for copy instructions, re-serialising every
	// dependence chain at split points.
	NoForwarding bool

	// LoadLatency/FPLatency/FPDivLatency enable the multicycle extension
	// (paper §3.9 / companion study [14]): a consumer of an L-cycle
	// producer must be scheduled at least L long instructions below it.
	// Zero means 1 (the paper's Table 1 baseline).
	LoadLatency  int
	FPLatency    int
	FPDivLatency int

	// RecordTrace attaches the sequential instruction trace to every
	// flushed block (Block.Trace): each Completed handed to Insert while
	// the block is open, including ignored nops and unconditional
	// branches. The static block-legality verifier (internal/blockcheck)
	// reconstructs each slot's footprint from this trace and proves the
	// schedule preserves the source dependences. Off by default: recording
	// allocates per block, and the insertion hot path stays zero-alloc
	// only when it is disabled.
	RecordTrace bool

	// FaultDropCopy is a deliberate fault-injection switch used only by
	// the differential oracle's meta-test (internal/oracle): the scheduler
	// drops the copy instruction a split leaves behind, so values
	// redirected to renaming registers are never committed architecturally
	// and VLIW execution diverges from sequential semantics. It exists to
	// prove the oracle detects real scheduler bugs; never set it otherwise.
	FaultDropCopy bool

	// FaultDropRename makes each split forget to redirect the producer's
	// first conflicted (non-memory) output to its renaming register while
	// still leaving the copy instruction behind: the copy then commits a
	// renaming register nothing writes. Meta-test only (blockcheck flags
	// it as a rename-no-producer violation).
	FaultDropRename bool

	// FaultSwapSlots relocates, at flush time, one consumer into the same
	// long instruction as its producer, violating the read-before-write
	// long-instruction semantics. Meta-test only (blockcheck flags it as
	// a RAW violation).
	FaultSwapSlots bool

	// FaultLatencyViolation relocates, at flush time, one consumer of a
	// multicycle producer into the producer's latency shadow. Meta-test
	// only (blockcheck flags it as a latency violation); it needs a
	// configuration with LoadLatency/FPLatency > 1 to find a victim.
	FaultLatencyViolation bool
}

// Latency returns the scheduling latency of an instruction under this
// configuration (exported for the block-legality verifier, which re-checks
// every slot's recorded latency).
func (c Config) Latency(in *isa.Inst) int { return c.latencyOf(in) }

// SlotAccepts reports whether slot index i can hold an instruction of
// class cl (exported for the block-legality verifier's resource checks).
func (c Config) SlotAccepts(i int, cl isa.FUClass) bool { return c.slotAccepts(i, cl) }

// latencyOf returns the scheduling latency of an instruction under this
// configuration.
func (c Config) latencyOf(in *isa.Inst) int {
	l := 1
	switch in.LatencyClass() {
	case isa.LatLoad:
		l = c.LoadLatency
	case isa.LatFP:
		l = c.FPLatency
	case isa.LatFPDiv:
		l = c.FPDivLatency
	}
	if l < 1 {
		l = 1
	}
	return l
}

// MaxLatency returns the longest configured latency.
func (c Config) MaxLatency() int {
	m := 1
	for _, l := range []int{c.LoadLatency, c.FPLatency, c.FPDivLatency} {
		if l > m {
			m = l
		}
	}
	return m
}

// Validate checks that the configuration can schedule every instruction
// class.
func (c Config) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("sched: width %d / height %d invalid", c.Width, c.Height)
	}
	if c.Width > 64 {
		// The occupancy and FU-acceptance masks pack slot indices into one
		// 64-bit word; the paper's geometries stop at 16.
		return fmt.Errorf("sched: width %d exceeds the 64-slot implementation bound", c.Width)
	}
	if c.MaxLatency() > 63 {
		// Latency buckets are tracked in a 64-bit nonempty mask.
		return fmt.Errorf("sched: max latency %d exceeds the 63-cycle implementation bound", c.MaxLatency())
	}
	if c.NWin <= 0 {
		return fmt.Errorf("sched: nwin %d invalid", c.NWin)
	}
	if c.FUs == nil {
		return nil
	}
	if len(c.FUs) != c.Width {
		return fmt.Errorf("sched: %d FU classes for width %d", len(c.FUs), c.Width)
	}
	for _, class := range []isa.FUClass{isa.FUInt, isa.FULoadStore, isa.FUFloat, isa.FUBranch} {
		ok := false
		for _, fu := range c.FUs {
			if fu == isa.FUAny || fu == class {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("sched: no slot accepts %v instructions", class)
		}
	}
	return nil
}

// slotAccepts reports whether slot index i can hold an instruction of
// class cl.
func (c Config) slotAccepts(i int, cl isa.FUClass) bool {
	if c.FUs == nil {
		return true
	}
	return c.FUs[i] == isa.FUAny || c.FUs[i] == cl
}

// Stats accumulates Scheduler Unit statistics across a run. Width and
// Height record the scheduler's block geometry at construction, so
// derived metrics cannot be computed against mismatched dimensions.
type Stats struct {
	Width, Height int // block geometry (set by New)

	Inserted       uint64 // instructions placed in the scheduling list
	Ignored        uint64 // nops and unconditional branches dropped
	Splits         uint64
	MoveUps        uint64
	Installs       uint64
	BlocksFlushed  uint64
	FlushedLIs     uint64
	FlushedSlots   uint64 // valid ops in flushed blocks
	MaxRenames     [NumRenameClasses]uint16
	ConservativeBl uint64

	// Repacking statistics (strategies rewriting blocks in FinishBlock;
	// zero under the default FCFS strategy). RepackSavedLIs accumulates
	// the long instructions removed versus the FCFS schedule; RepackProven
	// counts blocks whose repack was proven optimal (search completed
	// within the node budget); RepackNodes sums search nodes visited.
	RepackedBlocks uint64
	RepackSavedLIs uint64
	RepackProven   uint64
	RepackNodes    uint64
}

// SlotUtilisation returns valid slots over total slot capacity of flushed
// blocks (paper Table 3 reports ~33%), using the geometry recorded at
// scheduler construction.
func (st *Stats) SlotUtilisation() float64 {
	if st.BlocksFlushed == 0 || st.Width*st.Height == 0 {
		return 0
	}
	return float64(st.FlushedSlots) / float64(st.BlocksFlushed*uint64(st.Width*st.Height))
}

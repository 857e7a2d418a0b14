// Package dif implements the DIF (Dynamic Instruction Formatting) machine
// of Nair and Hopkins, the paper's Figure 9 comparator. Like the original
// evaluation (a trace simulator), this is a trace-driven timing model over
// the sequential interpreter:
//
//   - a primary engine executes instructions the first time (same pipeline
//     costs as the DTSVLIW Primary Processor),
//   - a greedy scheduler places each completed instruction into the
//     earliest long instruction of the current group using a
//     resource-availability table (not the DTSVLIW's FCFS list),
//   - register renaming uses a bounded number of instances per
//     architectural register (4 in the paper); instance exhaustion ends
//     the group,
//   - finished groups are saved in the DIF cache at whole-block
//     granularity, with exit maps consuming cache space (19 bytes per exit
//     point),
//   - on a fetch hit, the VLIW engine replays the group: one cycle per
//     long instruction, exiting early when a branch leaves the recorded
//     trace.
//
// Differences from the DTSVLIW (paper §3.12) reproduced here: block-
// granularity cache communication, greedy versus FCFS scheduling, instance
// renaming versus split/copy, and the exit-map cache-space overhead.
package dif

import (
	"dtsvliw/internal/arch"
	"dtsvliw/internal/isa"
	"dtsvliw/internal/mem"
	"dtsvliw/internal/primary"
)

// The Figure 9 DIF machine: the DIF paper's parameters, the only ones
// any experiment runs.
const (
	Width    = 6 // instructions per long instruction (homogeneous units)
	Height   = 6 // long instructions per group
	Branches = 2 // branch units (branch slots per long instruction)

	// Instances is the number of renaming instances per architectural
	// register (4 in the DIF evaluation).
	Instances = 4

	// CacheBlocks/CacheAssoc size the DIF cache in groups: 512 sets of
	// 2. Exit maps are accounted in CacheBytes for reporting only: the
	// cache holds whole groups regardless.
	CacheBlocks = 1024
	CacheAssoc  = 2

	// GroupFetchCycles is charged on every group entry: the unit of
	// communication between the DIF cache and its VLIW engine is an
	// entire block (paper §3.12), so execution cannot start until the
	// block transfer begins, unlike the DTSVLIW's per-long-instruction
	// VLIW Cache access.
	GroupFetchCycles = 1

	NWin = 16 // register windows

	// CacheBytes is the DIF cache capacity in bytes, including the
	// 19-byte exit maps (one per branch slot per long instruction plus
	// one final exit, as the paper computes 463 KB for 512x2 blocks of
	// 6x6).
	CacheBytes = CacheBlocks * (Width*Height*6 + (Height*Branches+1)*19)

	sets      = CacheBlocks / CacheAssoc
	maxCycles = 1 << 62 // safety limit
)

// Caches returns Figure 9's 4-KB instruction and data caches, both with
// a 2-cycle miss penalty, which the DIF machine and the DTSVLIW side of
// the comparison share.
func Caches() (icache, dcache mem.CacheConfig) {
	return mem.CacheConfig{SizeBytes: 4 * 1024, LineBytes: 128, Assoc: 2, MissPenalty: 2},
		mem.CacheConfig{SizeBytes: 4 * 1024, LineBytes: 32, Assoc: 1, MissPenalty: 2}
}

// traceRec is one instruction of a group's recorded trace.
type traceRec struct {
	addr  uint32
	sched int // long-instruction index the greedy scheduler chose
}

// group is one DIF cache block.
type group struct {
	tag      uint32
	cwp      uint8
	numLIs   int
	trace    []traceRec
	nextAddr uint32
}

// Stats accumulates a DIF run.
type Stats struct {
	Cycles        uint64
	PrimaryCycles uint64
	DIFCycles     uint64
	Retired       uint64
	GroupsSaved   uint64
	GroupHits     uint64
	GroupMisses   uint64
	TraceExits    uint64
	InstanceEnds  uint64 // groups ended by instance exhaustion
	Switches      uint64
}

// IPC returns instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// Machine is a DIF processor timing model over sequential state.
type Machine struct {
	maxInstrs uint64
	st        *arch.State
	ic        *mem.Cache
	dc        *mem.Cache
	pipe      *primary.Pipeline

	cache     []difLine // CacheBlocks entries, set-associative
	clk       uint64
	skipProbe bool

	// group under construction
	cur       *group
	avail     map[isa.Loc]int
	readAvail map[isa.Loc]int // latest long instruction reading a location
	liUsed    []int           // non-branch slots used per LI
	brUsed    []int           // branch slots used per LI
	lastBrLI  int
	writes    map[uint16]int // instance count per physical register

	Stats Stats
}

type difLine struct {
	valid bool
	tag   uint32
	cwp   uint8
	g     *group
	lru   uint64
}

// New builds the Figure 9 DIF machine over st. It stops after maxInstrs
// sequential instructions (0 = run until the program halts).
func New(st *arch.State, maxInstrs uint64) *Machine {
	icache, dcache := Caches()
	ic, err := mem.NewCache(icache)
	if err != nil {
		panic(err) // Caches returns valid configurations
	}
	dc, err := mem.NewCache(dcache)
	if err != nil {
		panic(err)
	}
	m := &Machine{
		maxInstrs: maxInstrs, st: st, ic: ic, dc: dc,
		pipe:  primary.New(isa.Latencies{}),
		cache: make([]difLine, CacheBlocks),
	}
	m.resetGroup()
	return m
}

func (m *Machine) resetGroup() {
	m.cur = nil
	m.avail = make(map[isa.Loc]int)
	m.readAvail = make(map[isa.Loc]int)
	m.liUsed = make([]int, Height)
	m.brUsed = make([]int, Height)
	m.lastBrLI = 0
	m.writes = make(map[uint16]int)
}

func (m *Machine) lookup(addr uint32, cwp uint8) (*group, bool) {
	base := (int(addr>>2) % sets) * CacheAssoc
	for i := 0; i < CacheAssoc; i++ {
		l := &m.cache[base+i]
		if l.valid && l.tag == addr && l.cwp == cwp {
			m.clk++
			l.lru = m.clk
			return l.g, true
		}
	}
	return nil, false
}

func (m *Machine) save(g *group) {
	if g == nil || len(g.trace) == 0 {
		return
	}
	m.clk++
	base := (int(g.tag>>2) % sets) * CacheAssoc
	victim := base
	for i := 0; i < CacheAssoc; i++ {
		l := &m.cache[base+i]
		if l.valid && l.tag == g.tag && l.cwp == g.cwp {
			victim = base + i
			break
		}
		if !m.cache[victim].valid {
			continue
		}
		if !l.valid || l.lru < m.cache[victim].lru {
			victim = base + i
		}
	}
	m.cache[victim] = difLine{valid: true, tag: g.tag, cwp: g.cwp, g: g, lru: m.clk}
	m.Stats.GroupsSaved++
}

// Package vliw implements the VLIW Engine (paper §3.5, §3.8, §3.10,
// §3.11): it executes blocks of long instructions from the VLIW Cache
// against the architectural state shared with the Primary Processor, with
//
//   - read-before-write semantics within each long instruction,
//   - branch-tag validation and trace-exit redirection,
//   - renaming registers holding split instruction results (and deferred
//     exception information),
//   - copy instructions committing renamed values architecturally,
//   - memory-aliasing detection through load/store lists, order fields and
//     cross bits, and
//   - checkpointing with a recovery store list (Hwu & Patt).
package vliw

import (
	"fmt"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/isa"
	"dtsvliw/internal/sched"
	"dtsvliw/internal/telemetry"
)

// microStore is one buffered memory write held in a memory renaming
// register or pending at the end of a long instruction.
type microStore struct {
	addr uint32
	val  uint32
	size uint8
}

// maxMicroStores is the most micro-stores one instruction can produce
// (STD/STDF write two words); buffers are inline arrays of this size so
// the hot path never allocates.
const maxMicroStores = 2

// renVal is the runtime contents of one renaming register.
type renVal struct {
	val   uint32
	exc   error                      // deferred exception (paper §3.8)
	st    [maxMicroStores]microStore // memory renaming registers buffer the store data
	nst   uint8
	memEA uint32 // runtime effective address of a renamed store
}

// memRec is one entry of the load or store list (paper §3.10).
type memRec struct {
	addr  uint32
	size  uint8
	order uint16
}

func overlaps(a memRec, addr uint32, size uint8) bool {
	return a.addr < addr+uint32(size) && addr < a.addr+uint32(a.size)
}

// undoRec is one entry of the checkpoint recovery store list.
type undoRec struct {
	addr uint32
	old  uint32
	size uint8
}

// AliasingError reports a memory-aliasing exception detected during VLIW
// execution.
type AliasingError struct {
	Addr        uint32
	LoadOrder   uint16
	StoreOrder  uint16
	Description string
}

func (e *AliasingError) Error() string {
	return fmt.Sprintf("vliw: aliasing at %#08x (%s, load order %d vs store order %d)",
		e.Addr, e.Description, e.LoadOrder, e.StoreOrder)
}

// Result reports the effects of executing one long instruction.
type Result struct {
	// TraceExit is set when a conditional or indirect branch left the
	// recorded trace; NextPC is where sequential execution continues.
	TraceExit bool
	NextPC    uint32

	// ExitAdvance is the number of sequential instructions the recorded
	// trace covers up to and including the deviating branch; the lockstep
	// test machine advances by this amount on a trace exit. ExitBranch is
	// the deviating branch's address (the next-long-instruction
	// predictor's key).
	ExitAdvance uint64
	ExitBranch  uint32

	// Exception is set when recovery is required; Aliasing distinguishes
	// aliasing exceptions (which invalidate the block) from others. The
	// engine has already rolled the block back when Exception is set.
	Exception      bool
	Aliasing       bool
	Err            error
	RecoveryCycles int // cycles spent restoring the checkpoint

	// MemAddrs lists committed memory access addresses for Data Cache
	// timing; Stores lists committed memory writes for lockstep memory
	// comparison.
	MemAddrs []uint32
	Stores   []arch.StoreRec

	Committed int
	Annulled  int
}

// Stats accumulates VLIW Engine statistics (Table 3 columns).
type Stats struct {
	LIsExecuted    uint64
	OpsCommitted   uint64
	OpsAnnulled    uint64
	TraceExits     uint64
	Aliasing       uint64
	Exceptions     uint64
	BlocksEntered  uint64
	MaxLoadList    int
	MaxStoreList   int
	MaxCkptList    int
	CopiesExecuted uint64
	// MaxDataStoreList is the data-store-list high-water mark when the
	// SchemeStoreList alternative (paper §3.11) is active.
	MaxDataStoreList int
}

// Engine executes blocks of long instructions in their lowered form: the
// decode-once micro-op form Lower produces when a block is saved into the
// VLIW Cache (DESIGN.md §11), the software analogue of the paper's
// decoded-instruction cache line.
type Engine struct {
	st   *arch.State          //resetcheck:allow shared architectural state, the caller's to reset (see Reset doc)
	nwin int                  //resetcheck:allow window count fixed at construction
	tel  *telemetry.Collector //resetcheck:allow nil when telemetry is disabled; pooled reuse refuses telemetry machines

	lb    *LoweredBlock // the block being executed
	loads []memRec      //resetcheck:allow truncated by BeginLowered before any read
	strs  []memRec      //resetcheck:allow truncated by BeginLowered before any read

	// Renaming-register file: one arena indexed by LoweredBlock's
	// flattened register numbers, invalidated per block by epoch
	// stamping instead of clearing.
	flatRen   []renVal //resetcheck:allow epoch-stamped; BeginLowered invalidates wholesale via epoch++
	flatStamp []uint32 //resetcheck:allow epoch stamps; stale entries compare unequal to the bumped epoch
	epoch     uint32   //resetcheck:allow monotonic by design; resetting it could revalidate stale stamps

	shadowRegs []uint32   //resetcheck:allow checkpoint buffer, fully rewritten by the next BeginLowered
	shadowF    [32]uint32 //resetcheck:allow checkpoint buffer, fully rewritten by the next BeginLowered
	shadowICC  uint8      //resetcheck:allow checkpoint buffer, fully rewritten by the next BeginLowered
	shadowFCC  uint8      //resetcheck:allow checkpoint buffer, fully rewritten by the next BeginLowered
	shadowY    uint32     //resetcheck:allow checkpoint buffer, fully rewritten by the next BeginLowered
	shadowCWP  uint8      //resetcheck:allow checkpoint buffer, fully rewritten by the next BeginLowered
	undo       []undoRec  //resetcheck:allow truncated by BeginLowered before any read

	scheme  StoreScheme //resetcheck:allow store-handling scheme fixed at construction
	overlay *dataStoreOverlay

	// Multicycle extension: writes of latency-L slots commit at the end
	// of long instruction issueLI+L-1.
	pendWrites []pendWrite //resetcheck:allow truncated by BeginLowered before any read
	lpendRens  []lpendRen  //resetcheck:allow truncated by BeginLowered before any read
	maxDue     int         //resetcheck:allow recomputed by BeginLowered before any read

	// Per-LI scratch arenas, reused across ExecLI calls so the steady-
	// state hot loop never allocates. Result.MemAddrs and Result.Stores
	// alias scMemAddrs/scStores and are valid until the next ExecLI.
	scWrites   []pendWrite     //resetcheck:allow per-LI scratch, truncated at each ExecLI
	scLRens    []lpendRen      //resetcheck:allow per-LI scratch, truncated at each ExecLI
	scPend     []microStore    //resetcheck:allow per-LI scratch, truncated at each ExecLI
	scMemOps   []opMem         //resetcheck:allow per-LI scratch, truncated at each ExecLI
	scMemAddrs []uint32        //resetcheck:allow per-LI scratch, truncated at each ExecLI
	scStores   []arch.StoreRec //resetcheck:allow per-LI scratch, truncated at each ExecLI

	Stats Stats
}

// pendWrite is an architectural write awaiting its producer's latency.
type pendWrite struct {
	due int
	w   bufWrite
}

// lpendRen is a renaming-register write awaiting its producer's latency;
// the target register is a flat index into the engine's epoch-stamped
// rename arena.
type lpendRen struct {
	due  int
	flat int32
	v    renVal
}

// getRenFlat reads the flat rename file; an entry whose stamp predates
// the current block epoch reads as empty.
func (e *Engine) getRenFlat(flat int32) renVal {
	if e.flatStamp[flat] != e.epoch {
		return renVal{}
	}
	return e.flatRen[flat]
}

func (e *Engine) setRenFlat(flat int32, v renVal) {
	e.flatRen[flat] = v
	e.flatStamp[flat] = e.epoch
}

// getRenBypassFlat reads a renaming register through the result-
// forwarding bypass: a copy instruction scheduled inside its multicycle
// producer's latency shadow picks the value up from the functional
// unit's output latch (the newest pending write) rather than the rename
// file.
func (e *Engine) getRenBypassFlat(flat int32) renVal {
	for i := len(e.lpendRens) - 1; i >= 0; i-- {
		if e.lpendRens[i].flat == flat {
			return e.lpendRens[i].v
		}
	}
	return e.getRenFlat(flat)
}

// New builds a VLIW Engine over the shared architectural state.
func New(st *arch.State) *Engine {
	return &Engine{st: st, nwin: st.NWin}
}

// SetTelemetry attaches a telemetry collector (nil detaches). The hook
// sites are nil-guarded so a detached engine pays nothing.
func (e *Engine) SetTelemetry(t *telemetry.Collector) { e.tel = t }

// Reset returns the engine to its post-construction state for reuse over
// the same architectural state object. Every arena survives: the flat
// rename file stays epoch-invalidated (the stamp discipline makes stale
// entries unreadable), the per-block and per-LI scratch slices are
// truncated by the next BeginLowered, and the store-list overlay is
// emptied. Statistics are zeroed. A reset engine behaves identically to
// a freshly constructed one.
func (e *Engine) Reset() {
	e.lb = nil
	if e.overlay != nil {
		e.overlay.reset()
	}
	e.Stats = Stats{}
}

// Block returns the block currently being executed.
func (e *Engine) Block() *sched.Block {
	if e.lb == nil {
		return nil
	}
	return e.lb.b
}

// BeginLowered starts executing the lowered form of a block: it takes a
// checkpoint of the SPARC state (paper §3.11), clears the load and store
// lists, and invalidates the renaming-register arena by bumping the epoch
// stamp instead of clearing it.
func (e *Engine) BeginLowered(lb *LoweredBlock) {
	e.lb = lb
	e.loads = e.loads[:0]
	e.strs = e.strs[:0]
	e.undo = e.undo[:0]
	e.pendWrites = e.pendWrites[:0]
	e.lpendRens = e.lpendRens[:0]
	e.maxDue = 0
	if e.shadowRegs == nil {
		e.shadowRegs = make([]uint32, len(e.st.Regs))
	}
	copy(e.shadowRegs, e.st.Regs)
	e.shadowF = e.st.F
	e.shadowICC = e.st.ICC()
	e.shadowFCC = e.st.FCC()
	e.shadowY = e.st.Y()
	e.shadowCWP = e.st.CWP()
	e.Stats.BlocksEntered++
	e.epoch++
	if e.epoch == 0 {
		// Stamp wrap-around: reset all stamps so stale epoch-0 entries
		// cannot read as valid (once every 2^32 blocks).
		for i := range e.flatStamp {
			e.flatStamp[i] = 0
		}
		e.epoch = 1
	}
	if len(e.flatRen) < lb.renTotal {
		e.flatRen = make([]renVal, lb.renTotal)
		e.flatStamp = make([]uint32, lb.renTotal)
	}
}

// recover restores the checkpoint: shadow registers and the checkpoint
// recovery store list are written back, and the load and store lists are
// emptied (paper §3.11). It returns the recovery cost in cycles (one
// cycle for the shadow-register restore plus one per recovery-list entry).
func (e *Engine) recover() int {
	copy(e.st.Regs, e.shadowRegs)
	e.st.F = e.shadowF
	e.st.SetICC(e.shadowICC)
	e.st.SetFCC(e.shadowFCC)
	e.st.SetY(e.shadowY)
	e.st.SetCWP(e.shadowCWP)
	e.pendWrites = e.pendWrites[:0]
	e.lpendRens = e.lpendRens[:0]
	e.maxDue = 0
	if e.scheme == SchemeStoreList {
		// Discarding the data store list is the whole recovery for
		// memory: nothing was written through (paper §3.11).
		e.overlay.reset()
		return 1
	}
	cycles := 1 + len(e.undo)
	for i := len(e.undo) - 1; i >= 0; i-- {
		u := e.undo[i]
		if err := e.st.Mem.Write(u.addr, u.old, u.size); err != nil {
			panic(fmt.Sprintf("vliw: recovery store failed: %v", err))
		}
	}
	e.undo = e.undo[:0]
	e.loads = e.loads[:0]
	e.strs = e.strs[:0]
	return cycles
}

// bufWrite is one buffered non-memory architectural write.
type bufWrite struct {
	kind isa.LocKind
	idx  uint16
	val  uint32
}

// opMem is the aliasing metadata of one committed memory operation.
type opMem struct {
	addr    uint32
	size    uint8
	order   uint16
	cross   bool
	isStore bool
}

// loadMem performs one in-block memory read, honouring the data-store-
// list overlay when the §3.11 scheme is active.
func (e *Engine) loadMem(addr uint32, size uint8) (uint32, error) {
	if e.scheme == SchemeStoreList {
		// Loads read the data store list over the Data Cache and use the
		// last data stored on a list hit (paper §3.11).
		return e.overlay.read(e, addr, size)
	}
	return e.st.Mem.Read(addr, size)
}

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

// renCell is one renaming register's value and its epoch stamp. A stamp
// of epoch|fullBit marks a register whose write also carried a renVal
// payload (Engine.renFull).
type renCell struct {
	val   uint32
	stamp uint32
}

// fullBit is the stamp bit marking a renaming register that holds a
// renVal payload; epochs are even, so the bit is free.
const fullBit = 1

// renVal is the payload of a renaming register that holds more than a
// value: a deferred exception, or a split store's buffered data. Such a
// register's value reads as zero.
type renVal struct {
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

// RecoveryError reports a checkpoint recovery that could not complete:
// writing a recovery-list entry back to memory failed, which only memory
// unmapped under a running block causes. The state is then neither the
// checkpoint nor the faulting one, so execution cannot resume; Result.Err
// carries this error in place of the exception that forced the recovery.
type RecoveryError struct {
	Addr  uint32 // address of the failed recovery-list write
	Err   error  // why the write failed
	Cause error  // the exception being recovered from
}

func (e *RecoveryError) Error() string {
	return fmt.Sprintf("vliw: checkpoint recovery store at %#08x failed: %v (recovering from: %v)",
		e.Addr, e.Err, e.Cause)
}

func (e *RecoveryError) Unwrap() error { return e.Err }

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
	// engine has already rolled the block back when Exception is set,
	// unless Err is a *RecoveryError.
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
// decode-once micro-op form Lower produces when a VLIW Cache block is
// first entered (DESIGN.md §11), the software analogue of the paper's
// decoded-instruction cache line.
type Engine struct {
	st   *arch.State          //resetcheck:allow shared architectural state, the caller's to reset (see Reset doc)
	nwin int                  //resetcheck:allow window count fixed at construction
	tel  *telemetry.Collector //resetcheck:allow nil when telemetry is disabled; pooled reuse refuses telemetry machines

	lb    *LoweredBlock // the block being executed
	loads []memRec      //resetcheck:allow truncated by BeginLowered before any read
	strs  []memRec      //resetcheck:allow truncated by BeginLowered before any read

	// Renaming-register file: arenas indexed by LoweredBlock's flattened
	// register numbers, invalidated per block by epoch stamping instead
	// of clearing. ren holds every register's value and stamp; renFull
	// holds the payload of the few whose stamp carries fullBit.
	ren     []renCell //resetcheck:allow epoch-stamped; BeginLowered invalidates wholesale via the epoch bump
	renFull []renVal  //resetcheck:allow read only under a current fullBit stamp in ren
	epoch   uint32    //resetcheck:allow monotonic by design; resetting it could revalidate stale stamps

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
	pendRens   []renWrite  //resetcheck:allow truncated by BeginLowered before any read
	pendFulls  []fullWrite //resetcheck:allow truncated by BeginLowered before any read
	maxDue     int         //resetcheck:allow recomputed by BeginLowered before any read

	// Per-LI scratch arenas, reused across ExecLI calls so the steady-
	// state hot loop never allocates. Result.MemAddrs and Result.Stores
	// alias scMemAddrs/scStores and are valid until the next ExecLI.
	scWrites   []pendWrite     //resetcheck:allow per-LI scratch, truncated at each ExecLI
	scRens     []renWrite      //resetcheck:allow per-LI scratch, truncated at each ExecLI
	scFulls    []fullWrite     //resetcheck:allow per-LI scratch, truncated at each ExecLI
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

// renWrite is a value-only renaming-register write, the common case,
// buffered until its due long instruction; the target register is a flat
// index into the engine's epoch-stamped rename arena.
type renWrite struct {
	due  int32
	flat int32
	val  uint32
}

// fullWrite is a renaming-register write carrying a renVal payload: a
// deferred exception or a split store. Each renaming register is written
// by one slot of its block (the Scheduler Unit allocates them fresh per
// block), so a register has at most one write in flight and renWrites
// and fullWrites need no order between them.
type fullWrite struct {
	due  int32
	flat int32
	v    renVal
}

// renValue reads a renaming register's value; a register whose stamp
// predates the current block epoch reads as zero.
func (e *Engine) renValue(flat int32) uint32 {
	c := e.ren[flat]
	if c.stamp&^fullBit != e.epoch {
		return 0
	}
	return c.val
}

// copySource reads a renaming register for a copy instruction through
// the result-forwarding bypass: a copy scheduled inside its multicycle
// producer's latency shadow picks the value up from the functional
// unit's output latch (the pending write) rather than the rename file.
// p is the register's payload, nil when it holds only a value.
func (e *Engine) copySource(flat int32) (val uint32, p *renVal) {
	for i := len(e.pendFulls) - 1; i >= 0; i-- {
		if e.pendFulls[i].flat == flat {
			return 0, &e.pendFulls[i].v
		}
	}
	for i := len(e.pendRens) - 1; i >= 0; i-- {
		if e.pendRens[i].flat == flat {
			return e.pendRens[i].val, nil
		}
	}
	switch c := e.ren[flat]; c.stamp {
	case e.epoch:
		return c.val, nil
	case e.epoch | fullBit:
		return 0, &e.renFull[flat]
	}
	return 0, nil
}

func (e *Engine) commitRen(w renWrite) {
	e.ren[w.flat] = renCell{val: w.val, stamp: e.epoch}
}

func (e *Engine) commitFull(w *fullWrite) {
	e.ren[w.flat] = renCell{stamp: e.epoch | fullBit}
	e.renFull[w.flat] = w.v
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
	e.pendRens = e.pendRens[:0]
	e.pendFulls = e.pendFulls[:0]
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
	e.epoch += 2
	if e.epoch == 0 {
		// Stamp wrap-around: reset all stamps so stale epoch-0 entries
		// cannot read as valid (once every 2^31 blocks).
		clear(e.ren)
		e.epoch = 2
	}
	if len(e.ren) < lb.renTotal {
		e.ren = make([]renCell, lb.renTotal)
		e.renFull = make([]renVal, lb.renTotal)
	}
}

// recover restores the checkpoint: shadow registers and the checkpoint
// recovery store list are written back, and the load and store lists are
// emptied (paper §3.11). It returns the recovery cost in cycles (one
// cycle for the shadow-register restore plus one per recovery-list entry)
// and, when a recovery-list write fails, a RecoveryError without Cause.
func (e *Engine) recover() (int, *RecoveryError) {
	copy(e.st.Regs, e.shadowRegs)
	e.st.F = e.shadowF
	e.st.SetICC(e.shadowICC)
	e.st.SetFCC(e.shadowFCC)
	e.st.SetY(e.shadowY)
	e.st.SetCWP(e.shadowCWP)
	e.pendWrites = e.pendWrites[:0]
	e.pendRens = e.pendRens[:0]
	e.pendFulls = e.pendFulls[:0]
	e.maxDue = 0
	if e.scheme == SchemeStoreList {
		// Discarding the data store list is the whole recovery for
		// memory: nothing was written through (paper §3.11).
		e.overlay.reset()
		return 1, nil
	}
	cycles := 1 + len(e.undo)
	var err *RecoveryError
	for i := len(e.undo) - 1; i >= 0; i-- {
		u := e.undo[i]
		if werr := e.st.Mem.Write(u.addr, u.old, u.size); werr != nil {
			err = &RecoveryError{Addr: u.addr, Err: werr}
			break
		}
	}
	e.undo = e.undo[:0]
	e.loads = e.loads[:0]
	e.strs = e.strs[:0]
	return cycles, err
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

// Package vliw implements the VLIW Engine (paper §3.5, §3.8, §3.10,
// §3.11): it executes blocks of long instructions from the VLIW Cache
// against the architectural state shared with the Primary Processor, with
//
//   - read-before-write semantics within each long instruction (a slot
//     writes in place as it executes unless lowering stages its writes,
//     which wait in one write queue, in program order, for the end of
//     their due long instruction),
//   - branch-tag validation and trace-exit redirection,
//   - renaming registers holding split instruction results (and deferred
//     exception information),
//   - copy instructions committing renamed values architecturally,
//   - memory-aliasing detection through load/store lists, order fields and
//     cross bits, and
//   - checkpointing of the registers each block writes, with a recovery
//     store list (Hwu & Patt), or the data store list alternative.
//
// Committed stores reach memory through arch.State.Store, so the state's
// store log lists them under LogStores; an exception is reported in
// Result.Err alone.
package vliw

import (
	"fmt"
	"math/bits"

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

	// Err is set when the long instruction raised an exception; an
	// *AliasingError invalidates the block. The engine has already
	// rolled the block back when Err is set, unless Err is a
	// *RecoveryError.
	Err            error
	RecoveryCycles int // cycles spent restoring the checkpoint

	// MemAddrs lists committed memory access addresses for Data Cache
	// timing.
	MemAddrs []uint32
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

	// Shadow registers (paper §3.11), indexed like the state's files; an
	// entry is current only for the block's write set.
	shadowRegs [iregWords * 64]uint32 //resetcheck:allow checkpoint buffer, the write set rewritten by the next BeginLowered
	shadowF    [32]uint32             //resetcheck:allow checkpoint buffer, the write set rewritten by the next BeginLowered
	shadowICC  uint8                  //resetcheck:allow checkpoint buffer, fully rewritten by the next BeginLowered
	shadowFCC  uint8                  //resetcheck:allow checkpoint buffer, fully rewritten by the next BeginLowered
	shadowY    uint32                 //resetcheck:allow checkpoint buffer, fully rewritten by the next BeginLowered
	shadowCWP  uint8                  //resetcheck:allow checkpoint buffer, fully rewritten by the next BeginLowered
	undo       []undoRec              //resetcheck:allow truncated by BeginLowered before any read

	scheme StoreScheme //resetcheck:allow store-handling scheme fixed at construction
	// storeList is the data store list of SchemeStoreList (paper §3.11):
	// the block's stores in commit order, drained to memory by EndBlock.
	storeList []microStore

	// Staged writes in program order, each landing at the end of its due
	// long instruction: the writes of staged slots and of latencies above
	// one, copies' staged writes, deferred exceptions and split stores.
	// pend0 is the queue's length before the current long instruction's
	// phase 2; the copy bypass reads only pend[:pend0].
	pend  []pendWrite //resetcheck:allow truncated by BeginLowered before any read
	pend0 int         //resetcheck:allow set by each ExecLI before any read

	// Per-LI scratch arenas, reused across ExecLI calls so the steady-
	// state hot loop never allocates: every memory store, every memory
	// operation's aliasing metadata and every access address.
	// Result.MemAddrs aliases scMemAddrs and is valid until the next
	// ExecLI.
	scPend     []microStore //resetcheck:allow per-LI scratch, truncated at each ExecLI
	scMemOps   []opMem      //resetcheck:allow per-LI scratch, truncated at each ExecLI
	scMemAddrs []uint32     //resetcheck:allow per-LI scratch, truncated at each ExecLI

	Stats Stats
}

// pendWrite is one staged write awaiting the end of its due long
// instruction. Its target is renaming register flat when kind is
// isa.LocRen, carrying the payload v when full is set, and otherwise the
// architectural location kind/idx.
type pendWrite struct {
	due  int32
	kind isa.LocKind
	full bool
	idx  uint16
	flat int32
	val  uint32
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
// unit's output latch (the write still queued by an earlier long
// instruction) rather than the rename file. Each renaming register is
// written by one slot of its block, so at most one such write is queued.
// p is the register's payload, nil when it holds only a value.
func (e *Engine) copySource(flat int32) (val uint32, p *renVal) {
	for i := e.pend0 - 1; i >= 0; i-- {
		if w := &e.pend[i]; w.kind == isa.LocRen && w.flat == flat {
			if w.full {
				return 0, &w.v
			}
			return w.val, nil
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
// truncated by the next BeginLowered, and the data store list is
// emptied. Statistics are zeroed. A reset engine behaves identically to
// a freshly constructed one.
func (e *Engine) Reset() {
	e.lb = nil
	e.storeList = e.storeList[:0]
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
// stamp instead of clearing it. The checkpoint holds the registers of
// the block's write set and the ICC, FCC, Y and CWP singletons: the
// block changes no other register, so restoring these restores the
// whole register state.
func (e *Engine) BeginLowered(lb *LoweredBlock) {
	e.lb = lb
	e.loads = e.loads[:0]
	e.strs = e.strs[:0]
	e.undo = e.undo[:0]
	e.pend = e.pend[:0]
	copyWriteSet(lb, e.shadowRegs[:], e.st.Regs, &e.shadowF, &e.st.F)
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

// copyWriteSet copies the registers of lb's write set from the integer
// and FP files srcRegs and srcF to dstRegs and dstF.
func copyWriteSet(lb *LoweredBlock, dstRegs, srcRegs []uint32, dstF, srcF *[32]uint32) {
	for w, set := range lb.iregs {
		for ; set != 0; set &= set - 1 {
			r := w*64 + bits.TrailingZeros64(set)
			dstRegs[r] = srcRegs[r]
		}
	}
	for set := lb.fregs; set != 0; set &= set - 1 {
		r := bits.TrailingZeros32(set)
		dstF[r] = srcF[r]
	}
}

// recover restores the checkpoint: shadow registers and the checkpoint
// recovery store list are written back, and the load and store lists are
// emptied (paper §3.11). It returns the recovery cost in cycles (one
// cycle for the shadow-register restore plus one per recovery-list entry)
// and, when a recovery-list write fails, a RecoveryError without Cause.
func (e *Engine) recover() (int, *RecoveryError) {
	copyWriteSet(e.lb, e.st.Regs, e.shadowRegs[:], &e.st.F, &e.shadowF)
	e.st.SetICC(e.shadowICC)
	e.st.SetFCC(e.shadowFCC)
	e.st.SetY(e.shadowY)
	e.st.SetCWP(e.shadowCWP)
	e.pend = e.pend[:0]
	if e.scheme == SchemeStoreList {
		// Discarding the data store list is the whole recovery for
		// memory: nothing was written through (paper §3.11).
		e.storeList = e.storeList[:0]
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

// opMem is the aliasing metadata of one committed memory operation.
type opMem struct {
	addr    uint32
	size    uint8
	order   uint16
	cross   bool
	isStore bool
}

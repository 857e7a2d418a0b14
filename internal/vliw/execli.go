package vliw

import (
	"fmt"
	"math"

	"dtsvliw/internal/isa"
	"dtsvliw/internal/mem"
)

// ExecLI executes long instruction line of the current block. All operand
// reads observe the state before the long instruction, and only slots
// whose branch tags are valid write. A slot's register writes land in
// place as it executes unless lowering staged them (lop.stage), which
// holds them to the end of the long instruction; stores always commit at
// its end. On an exception, the block has already been rolled back to
// its entry checkpoint when ExecLI returns.
//
// Result.MemAddrs aliases an engine-owned scratch arena and is valid only
// until the next ExecLI call.
func (e *Engine) ExecLI(line int) Result {
	var res Result
	e.ExecLIInto(line, &res)
	return res
}

// ExecLIInto is ExecLI writing its result into *res, which is reset
// first. The machine's dispatch loop reuses one Result across an entire
// run of blocks instead of copying the struct out per long instruction.
func (e *Engine) ExecLIInto(line int, res *Result) {
	*res = Result{}
	lb := e.lb
	if lb == nil || line < 0 || line >= len(lb.lines) {
		res.Err = fmt.Errorf("vliw: no long instruction %d", line)
		return
	}
	ll := &lb.lines[line]
	brs, ops := lb.brs[ll.br0:ll.br1], lb.ops[ll.op0:ll.op1]
	e.Stats.LIsExecuted++

	// Phase 1: resolve conditional and indirect branches in tag order
	// (their operands are pre-LI state, so resolution is order-free; the
	// tag order decides which deviation wins, paper §3.8).
	tagLimit := int(^uint(0) >> 1) // all tags valid
	var exitPC uint32
	var exitSeq uint64
	var exitBranch uint32
	exit := false
	for i := range brs {
		br := &brs[i]
		if int(br.tag) > tagLimit {
			continue // annulled by an earlier deviating branch
		}
		taken, target := e.resolveLoweredBranch(br)
		if taken == br.brTaken && (!taken || target == br.brTarget) {
			continue // followed the recorded trace
		}
		// Deviation: instructions tagged after this branch are annulled
		// and execution continues at the actual next PC.
		var next uint32
		if taken {
			next = target
		} else {
			next = br.addr + 4
		}
		if !exit || int(br.tag) < tagLimit {
			exit = true
			exitPC = next
			exitSeq = br.seq
			exitBranch = br.addr
			tagLimit = int(br.tag)
		}
	}

	// Phase 2: execute valid slots. An unstaged slot writes its registers
	// in place (due dueNow); a staged slot's writes join the queue, each
	// carrying the long-instruction index at which its producer's latency
	// lands.
	e.pend0 = len(e.pend)
	e.scPend = e.scPend[:0]
	e.scMemOps = e.scMemOps[:0]
	e.scMemAddrs = e.scMemAddrs[:0]
	committed, annulled := 0, 0
	for i := range ops {
		op := &ops[i]
		if int(op.tag) > tagLimit {
			annulled++
			continue
		}
		committed++
		lands := line + int(op.lat) - 1
		due := dueNow
		if op.stage {
			due = lands
		}
		if op.isCopy {
			if err := e.execLoweredCopy(op, due); err != nil {
				e.fail(res, err)
				return
			}
			e.Stats.CopiesExecuted++
			continue
		}
		if err := e.execLoweredOp(op, due); err != nil {
			if rens := lb.rens[op.ren0:op.ren1]; len(rens) > 0 {
				// Deferred exception: stash it in the renaming registers;
				// it surfaces only if a copy commits (paper §3.8).
				for _, f := range rens {
					e.pend = append(e.pend, pendWrite{due: int32(lands), kind: isa.LocRen,
						full: true, flat: f, v: renVal{exc: err}})
				}
				continue
			}
			e.fail(res, err)
			return
		}
	}

	// Phase 3: aliasing detection (paper §3.10) before the staged writes
	// and the stores commit. The in-place writes already made are undone
	// by the rollback an exception takes, so every state the machine or
	// the test machine sees is the one "nothing commits before the
	// aliasing check" gives.
	if err := e.checkAliasing(e.scMemOps); err != nil {
		e.fail(res, err)
		return
	}

	if !e.commitLI(line, res) {
		return
	}

	e.Stats.OpsCommitted += uint64(committed)
	e.Stats.OpsAnnulled += uint64(annulled)
	if e.tel != nil {
		e.tel.LIExecuted(committed, annulled)
	}
	res.MemAddrs = e.scMemAddrs
	if exit {
		e.Stats.TraceExits++
		res.TraceExit = true
		res.NextPC = exitPC
		res.ExitAdvance = exitSeq - lb.b.FirstSeq + 1
		res.ExitBranch = exitBranch
	}
}

// fail rolls the block back to its entry checkpoint and reports err as
// the long instruction's exception. A recovery that cannot complete
// reports its *RecoveryError, with err as the cause, instead.
func (e *Engine) fail(res *Result, err error) {
	cycles, rerr := e.recover()
	res.RecoveryCycles = cycles
	res.Err = err
	if rerr != nil {
		rerr.Cause = err
		res.Err = rerr
	}
}

// commitLI runs the commit phases. Phase 4: the queued writes due by
// the end of this long instruction land in queue order, so when an older
// producer's latency expires in the same long instruction in which a
// younger instruction writes the same location, the younger value
// survives as program order requires; then buffered stores reach memory
// under the active recoverability scheme. Phase 5 records cross-bit
// memory operations in the load/store lists. It returns false if a
// memory fault forced a rollback, with res filled in.
func (e *Engine) commitLI(line int, res *Result) bool {
	e.land(line)
	for _, ms := range e.scPend {
		if e.scheme == SchemeStoreList {
			// Buffer in the data store list; EndBlock writes memory.
			if !e.st.Mem.Mapped(ms.addr) {
				e.fail(res, &mem.FaultError{Addr: ms.addr})
				return false
			}
			e.storeList = append(e.storeList, ms)
			continue
		}
		// Store only once the undo read has succeeded, so the state's
		// store log (under LogStores) lists only mapped addresses.
		old, err := e.st.Mem.Read(ms.addr, ms.size)
		if err == nil {
			e.undo = append(e.undo, undoRec{addr: ms.addr, old: old, size: ms.size})
			err = e.st.Store(ms.addr, ms.val, ms.size)
		}
		if err != nil {
			e.fail(res, err)
			return false
		}
	}
	if e.scheme == SchemeStoreList {
		if n := len(e.storeList); n > e.Stats.MaxDataStoreList {
			e.Stats.MaxDataStoreList = n
		}
	} else if len(e.undo) > e.Stats.MaxCkptList {
		e.Stats.MaxCkptList = len(e.undo)
	}

	// Phase 5: record cross-bit memory operations in the load/store lists.
	for _, m := range e.scMemOps {
		if !m.cross {
			continue
		}
		rec := memRec{addr: m.addr, size: m.size, order: m.order}
		if m.isStore {
			e.strs = append(e.strs, rec)
		} else {
			e.loads = append(e.loads, rec)
		}
	}
	if len(e.loads) > e.Stats.MaxLoadList {
		e.Stats.MaxLoadList = len(e.loads)
	}
	if len(e.strs) > e.Stats.MaxStoreList {
		e.Stats.MaxStoreList = len(e.strs)
	}
	return true
}

// checkAliasing applies the paper's §3.10 rules: every load compares
// against the stores of its long instruction and the store list; every
// store compares against the loads and stores of its long instruction and
// both lists. An order inversion on an address overlap raises an aliasing
// exception.
func (e *Engine) checkAliasing(memOps []opMem) error {
	for i, m := range memOps {
		// Same-long-instruction comparisons.
		for j, o := range memOps {
			if i == j {
				continue
			}
			if !(o.addr < m.addr+uint32(m.size) && m.addr < o.addr+uint32(o.size)) {
				continue
			}
			if !m.isStore && o.isStore && m.order < o.order {
				return &AliasingError{Addr: m.addr, LoadOrder: m.order, StoreOrder: o.order,
					Description: "load before same-LI store"}
			}
			if m.isStore && m.order < o.order {
				return &AliasingError{Addr: m.addr, LoadOrder: o.order, StoreOrder: m.order,
					Description: "store reordered within LI"}
			}
		}
		if !m.isStore {
			// Load vs the store list.
			for _, srec := range e.strs {
				if overlaps(srec, m.addr, m.size) && m.order < srec.order {
					return &AliasingError{Addr: m.addr, LoadOrder: m.order, StoreOrder: srec.order,
						Description: "load executed after younger store"}
				}
			}
			continue
		}
		// Store vs both lists.
		for _, lrec := range e.loads {
			if overlaps(lrec, m.addr, m.size) && m.order < lrec.order {
				return &AliasingError{Addr: m.addr, LoadOrder: lrec.order, StoreOrder: m.order,
					Description: "store executed after younger load"}
			}
		}
		for _, srec := range e.strs {
			if overlaps(srec, m.addr, m.size) && m.order < srec.order {
				return &AliasingError{Addr: m.addr, LoadOrder: srec.order, StoreOrder: m.order,
					Description: "store executed after younger store"}
			}
		}
	}
	return nil
}

// applyWrite writes val to the architectural location kind/idx.
func (e *Engine) applyWrite(kind isa.LocKind, idx uint16, val uint32) {
	switch kind {
	case isa.LocIReg:
		e.st.WriteReg(idx, val)
	case isa.LocFReg:
		e.st.WriteF(uint8(idx), val)
	case isa.LocICC:
		e.st.SetICC(uint8(val))
	case isa.LocFCC:
		e.st.SetFCC(uint8(val))
	case isa.LocY:
		e.st.SetY(val)
	case isa.LocCWP:
		e.st.SetCWP(uint8(val))
	}
}

// land applies every queued write due at or before line, in queue
// order, and keeps the rest queued.
func (e *Engine) land(line int) {
	keep := e.pend[:0]
	for i := range e.pend {
		w := &e.pend[i]
		switch {
		case int(w.due) > line:
			keep = append(keep, *w)
		case w.kind != isa.LocRen:
			e.applyWrite(w.kind, w.idx, w.val)
		case w.full:
			e.ren[w.flat] = renCell{stamp: e.epoch | fullBit}
			e.renFull[w.flat] = w.v
		default:
			e.ren[w.flat] = renCell{val: w.val, stamp: e.epoch}
		}
	}
	e.pend = keep
}

// FlushPending commits every delayed write at a block boundary (normal
// end or trace exit) and returns the stall cycles needed for the longest
// in-flight latency to complete (zero with all-1 latencies). lastLine is
// the last long instruction executed; every write still queued is due
// after it.
func (e *Engine) FlushPending(lastLine int) int {
	stall := 0
	for i := range e.pend {
		stall = max(stall, int(e.pend[i].due)-lastLine)
	}
	e.land(math.MaxInt)
	return stall
}

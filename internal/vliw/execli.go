package vliw

import (
	"fmt"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/isa"
	"dtsvliw/internal/mem"
)

// ExecLI executes long instruction line of the current block. All operand
// reads observe the state before the long instruction; writes commit at
// its end, gated by branch tags. On an exception, the block has already
// been rolled back to its entry checkpoint when ExecLI returns.
//
// Result.MemAddrs and Result.Stores alias engine-owned scratch arenas and
// are valid only until the next ExecLI call.
func (e *Engine) ExecLI(line int) Result {
	var res Result
	e.ExecLIInto(line, &res)
	return res
}

// ExecLIInto is ExecLI writing its result into *res, which is reset
// first. A chained dispatch loop reuses one Result across an entire run
// of blocks instead of copying the struct out per long instruction.
func (e *Engine) ExecLIInto(line int, res *Result) {
	*res = Result{}
	lb := e.lb
	if lb == nil || line < 0 || line >= len(lb.lines) {
		res.Exception = true
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

	// Phase 2: execute valid slots, buffering writes into the reusable
	// scratch arenas. Each write carries the long-instruction index at
	// which its producer's latency lands.
	e.resetScratch()
	committed, annulled := 0, 0
	for i := range ops {
		op := &ops[i]
		if int(op.tag) > tagLimit {
			annulled++
			continue
		}
		committed++
		if op.isCopy {
			if err := e.execLoweredCopy(op, line); err != nil {
				e.Stats.Exceptions++
				if isAliasing(err) {
					e.Stats.Aliasing++
				}
				res.RecoveryCycles = e.recover()
				res.Exception = true
				res.Aliasing = isAliasing(err)
				res.Err = err
				return
			}
			e.Stats.CopiesExecuted++
			continue
		}
		due := line + int(op.lat) - 1
		if err := e.execLoweredOp(op, due); err != nil {
			if rens := lb.rens[op.ren0:op.ren1]; len(rens) > 0 {
				// Deferred exception: stash it in the renaming registers;
				// it surfaces only if a copy commits (paper §3.8).
				for _, f := range rens {
					e.scLRens = append(e.scLRens, lpendRen{due: due, flat: f, v: renVal{exc: err}})
				}
				continue
			}
			e.Stats.Exceptions++
			res.RecoveryCycles = e.recover()
			res.Exception = true
			res.Err = err
			return
		}
	}

	// Phase 3: aliasing detection (paper §3.10) before anything commits.
	if err := e.checkAliasing(e.scMemOps); err != nil {
		e.Stats.Exceptions++
		e.Stats.Aliasing++
		res.RecoveryCycles = e.recover()
		res.Exception = true
		res.Aliasing = true
		res.Err = err
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
	res.Committed = committed
	res.Annulled = annulled
	res.MemAddrs = e.scMemAddrs
	res.Stores = e.scStores
	if exit {
		e.Stats.TraceExits++
		res.TraceExit = true
		res.NextPC = exitPC
		res.ExitAdvance = exitSeq - lb.b.FirstSeq + 1
		res.ExitBranch = exitBranch
	}
}

// resetScratch readies the per-LI scratch arenas for a new long
// instruction.
func (e *Engine) resetScratch() {
	e.scWrites = e.scWrites[:0]
	e.scLRens = e.scLRens[:0]
	e.scPend = e.scPend[:0]
	e.scMemOps = e.scMemOps[:0]
	e.scMemAddrs = e.scMemAddrs[:0]
	e.scStores = e.scStores[:0]
}

// commitLI runs the commit phases over the scratch arenas. Phase 4:
// in-flight writes from earlier long instructions land first (when an
// older producer's latency expires in the same long instruction in which
// a younger instruction writes the same location, program order requires
// the younger value to survive), then this long instruction's writes
// apply or queue on their due line,
// then buffered stores reach memory under the active recoverability
// scheme. Phase 5 records cross-bit memory operations in the load/store
// lists. It returns false if a memory fault forced a rollback, with res
// filled in.
func (e *Engine) commitLI(line int, res *Result) bool {
	e.commitDue(line)
	for _, w := range e.scWrites {
		if w.due <= line {
			e.applyWrite(w.w)
		} else {
			e.pendWrites = append(e.pendWrites, w)
			if w.due > e.maxDue {
				e.maxDue = w.due
			}
		}
	}
	for _, r := range e.scLRens {
		if r.due <= line {
			e.setRenFlat(r.flat, r.v)
		} else {
			e.lpendRens = append(e.lpendRens, r)
			if r.due > e.maxDue {
				e.maxDue = r.due
			}
		}
	}
	for _, ms := range e.scPend {
		if e.scheme == SchemeStoreList {
			// Buffer in the data store list; memory is written at block
			// end (drain) and the journal is produced there.
			if !e.st.Mem.Mapped(ms.addr) {
				e.Stats.Exceptions++
				res.RecoveryCycles = e.recover()
				res.Exception = true
				res.Err = &mem.FaultError{Addr: ms.addr}
				return false
			}
			e.overlay.add(ms)
			continue
		}
		old, err := e.st.Mem.Read(ms.addr, ms.size)
		if err == nil {
			e.undo = append(e.undo, undoRec{addr: ms.addr, old: old, size: ms.size})
			err = e.st.Mem.Write(ms.addr, ms.val, ms.size)
		}
		if err != nil {
			e.Stats.Exceptions++
			res.RecoveryCycles = e.recover()
			res.Exception = true
			res.Err = err
			return false
		}
		e.scStores = append(e.scStores, arch.StoreRec{Addr: ms.addr, Size: ms.size})
	}
	if e.scheme == SchemeStoreList {
		if n := len(e.overlay.log); n > e.Stats.MaxDataStoreList {
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

func isAliasing(err error) bool {
	_, ok := err.(*AliasingError)
	return ok
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

func (e *Engine) applyWrite(w bufWrite) {
	switch w.kind {
	case isa.LocIReg:
		e.st.WriteReg(w.idx, w.val)
	case isa.LocFReg:
		e.st.WriteF(uint8(w.idx), w.val)
	case isa.LocICC:
		e.st.SetICC(uint8(w.val))
	case isa.LocFCC:
		e.st.SetFCC(uint8(w.val))
	case isa.LocY:
		e.st.SetY(w.val)
	case isa.LocCWP:
		e.st.SetCWP(uint8(w.val))
	}
}

// commitDue applies pending delayed writes whose due long instruction has
// been reached.
func (e *Engine) commitDue(line int) {
	if len(e.pendWrites) > 0 {
		keep := e.pendWrites[:0]
		for _, p := range e.pendWrites {
			if p.due <= line {
				e.applyWrite(p.w)
			} else {
				keep = append(keep, p)
			}
		}
		e.pendWrites = keep
	}
	if len(e.lpendRens) > 0 {
		keep := e.lpendRens[:0]
		for _, p := range e.lpendRens {
			if p.due <= line {
				e.setRenFlat(p.flat, p.v)
			} else {
				keep = append(keep, p)
			}
		}
		e.lpendRens = keep
	}
}

// FlushPending commits every delayed write at a block boundary (normal
// end or trace exit) and returns the stall cycles needed for the longest
// in-flight latency to complete (zero with all-1 latencies). lastLine is
// the last long instruction executed.
func (e *Engine) FlushPending(lastLine int) int {
	stall := 0
	if e.maxDue > lastLine {
		stall = e.maxDue - lastLine
	}
	e.commitDue(1 << 30)
	e.maxDue = 0
	return stall
}

package progcheck

import (
	"fmt"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/isa"
)

// Architectural dataflow locations: the 32 integer registers of the
// current window, the 32 floating-point registers, and the condition/
// special state. Windowed analysis is deliberately architectural, not
// physical: SAVE and RESTORE get explicit transfer functions instead of a
// window-resolved register file (see DESIGN.md §18 for the
// approximation).
const (
	locInt  = 0  // +r, r in 0..31
	locFP   = 32 // +f, f in 0..31
	locICC  = 64
	locFCC  = 65
	locY    = 66
	locCWP  = 67
	numLocs = 68
)

var intRegNames = [32]string{
	"%g0", "%g1", "%g2", "%g3", "%g4", "%g5", "%g6", "%g7",
	"%o0", "%o1", "%o2", "%o3", "%o4", "%o5", "%sp", "%o7",
	"%l0", "%l1", "%l2", "%l3", "%l4", "%l5", "%l6", "%l7",
	"%i0", "%i1", "%i2", "%i3", "%i4", "%i5", "%fp", "%i7",
}

// locName renders a dataflow location for diagnostics.
func locName(l uint8) string {
	switch {
	case l < locFP:
		return intRegNames[l]
	case l < locICC:
		return fmt.Sprintf("%%f%d", l-locFP)
	case l == locICC:
		return "icc"
	case l == locFCC:
		return "fcc"
	case l == locY:
		return "y"
	}
	return "cwp"
}

// footprint appends the architectural locations the instruction reads and
// writes. It reuses isa's dependency analysis (EffectsAppend with cwp 0,
// where physical and architectural indices coincide) for every
// instruction except SAVE and RESTORE, whose window rotation needs the
// explicit transfer functions in the passes below; here they read their
// sources and write their destination like a plain ALU op, plus CWP.
func footprint(in *isa.Inst, reads, writes []uint8) ([]uint8, []uint8) {
	if in.Op == isa.OpSAVE || in.Op == isa.OpRESTORE {
		if in.Rs1 != 0 {
			reads = append(reads, in.Rs1)
		}
		if !in.UseImm && in.Rs2 != 0 {
			reads = append(reads, in.Rs2)
		}
		reads = append(reads, locCWP)
		if in.Rd != 0 {
			writes = append(writes, in.Rd)
		}
		writes = append(writes, locCWP)
		return reads, writes
	}
	var rbuf, wbuf [8]isa.Loc
	rs, ws := in.EffectsAppend(0, 8, 0, rbuf[:0], wbuf[:0])
	conv := func(locs []isa.Loc, out []uint8) []uint8 {
		for _, l := range locs {
			switch l.Kind {
			case isa.LocIReg:
				out = append(out, uint8(l.Idx))
			case isa.LocFReg:
				out = append(out, locFP+uint8(l.Idx))
			case isa.LocICC:
				out = append(out, locICC)
			case isa.LocFCC:
				out = append(out, locFCC)
			case isa.LocY:
				out = append(out, locY)
			case isa.LocCWP:
				out = append(out, locCWP)
			}
			// LocMem is intentionally dropped: memory dependences are
			// handled separately (and excluded from the ILP bound, where
			// ignoring them only raises the bound).
		}
		return out
	}
	return conv(rs, reads), conv(ws, writes)
}

// ---------------------------------------------------------------------------
// Definitely-uninitialised reads.

// Initialisation lattice: Uninit < Unknown < Init; the join over paths is
// the minimum, so a location is flagged only when it is uninitialised on
// EVERY path from the entry (a must-analysis, chosen for low noise over a
// may-analysis that would drown real findings in window-rotation
// artefacts).
const (
	stUninit  = 0
	stUnknown = 1
	stInit    = 2
)

type initState [numLocs]uint8

func (s *initState) join(o *initState) bool {
	changed := false
	for i := range s {
		if o[i] < s[i] {
			s[i] = o[i]
			changed = true
		}
	}
	return changed
}

// uninitEntry is the machine state the loader guarantees at the entry
// point: %g0 is hardwired, %sp is set by the harness, CWP is defined.
func uninitEntry() initState {
	var s initState // all stUninit
	s[0] = stInit   // %g0
	s[14] = stInit  // %sp (set by every loader in the repository)
	s[locCWP] = stInit
	return s
}

// unknownEntry is the state at indirect roots: nothing is known, nothing
// is flagged.
func unknownEntry() initState {
	var s initState
	for i := range s {
		s[i] = stUnknown
	}
	return s
}

// stepInit advances the initialisation state across one instruction,
// reporting definitely-uninitialised reads through report (which may be
// nil during fixpoint iteration).
func stepInit(in *isa.Inst, ok bool, addr uint32, s *initState,
	report func(addr uint32, loc uint8)) {
	if !ok {
		return
	}
	var rbuf, wbuf [8]uint8
	reads, writes := footprint(in, rbuf[:0], wbuf[:0])
	for _, r := range reads {
		if s[r] == stUninit && report != nil {
			report(addr, r)
		}
	}
	switch in.Op {
	case isa.OpSAVE:
		// The new window's ins are the old window's outs; its locals and
		// outs hold whatever a previous occupant left (unknown, not
		// flagged: the window-depth pass covers wraps).
		for r := 24; r < 32; r++ {
			s[r] = s[r-16]
		}
		for r := 8; r < 24; r++ {
			s[r] = stUnknown
		}
		if in.Rd != 0 {
			s[in.Rd] = stInit
		}
		return
	case isa.OpRESTORE:
		for r := 8; r < 16; r++ {
			s[r] = s[r+16]
		}
		for r := 16; r < 32; r++ {
			s[r] = stUnknown
		}
		if in.Rd != 0 {
			s[in.Rd] = stInit
		}
		return
	}
	for _, w := range writes {
		if w != 0 {
			s[w] = stInit
		}
	}
}

// callReturnClobber models the ABI effect of a call on its fall-through
// (return) edge: the callee may have written the caller-saved registers
// and every volatile piece of state, so they become unknown; %o7 holds
// the restored return linkage.
func callReturnClobber(s *initState) {
	for r := 1; r < 8; r++ { // %g1..%g7
		s[r] = stUnknown
	}
	for r := 8; r < 14; r++ { // %o0..%o5
		s[r] = stUnknown
	}
	s[15] = stInit // %o7
	for f := locFP; f < locFP+32; f++ {
		s[f] = stUnknown
	}
	s[locICC], s[locFCC], s[locY] = stUnknown, stUnknown, stUnknown
}

// isCallBlock reports whether the block ends in a call whose fall-through
// successor is the return point (CALL, or JMPL with rd=%o7).
func (c *CFG) isCallBlock(b *Block) bool {
	last := int(b.End-c.TextBase)/4 - 1
	if !c.Ok[last] {
		return false
	}
	in := &c.Insts[last]
	return in.Op == isa.OpCALL || (in.Op == isa.OpJMPL && in.Rd == 15)
}

// uninitReads runs the must-uninitialised forward analysis and returns
// one diagnostic per (address, location) read that is uninitialised on
// every path from the entry point.
func (c *CFG) uninitReads() []Diagnostic {
	if len(c.Blocks) == 0 {
		return nil
	}
	in := make([]initState, len(c.Blocks))
	defined := make([]bool, len(c.Blocks)) // in-state has been seeded
	for i := range in {
		for j := range in[i] {
			in[i][j] = stInit // optimistic top; joins move down
		}
	}
	for _, r := range c.Roots {
		st := unknownEntry()
		if r == c.Entry {
			st = uninitEntry()
		}
		in[r].join(&st)
		defined[r] = true
	}
	// Fixpoint.
	for changed := true; changed; {
		changed = false
		for bi := range c.Blocks {
			b := &c.Blocks[bi]
			if !b.Reachable || !defined[bi] {
				continue
			}
			out := in[bi]
			for i := int(b.Start-c.TextBase) / 4; i < int(b.End-c.TextBase)/4; i++ {
				stepInit(&c.Insts[i], c.Ok[i], c.TextBase+uint32(4*i), &out, nil)
			}
			isCall := c.isCallBlock(b)
			for _, s := range b.Succs {
				edge := out
				if isCall && c.Blocks[s].Start == b.End+4 {
					callReturnClobber(&edge)
				}
				if !defined[s] {
					in[s] = edge
					defined[s] = true
					changed = true
				} else if in[s].join(&edge) {
					changed = true
				}
			}
		}
	}
	// Report pass over the converged states.
	seen := map[uint64]bool{}
	var ds []Diagnostic
	for bi := range c.Blocks {
		b := &c.Blocks[bi]
		if !b.Reachable || !defined[bi] {
			continue
		}
		st := in[bi]
		for i := int(b.Start-c.TextBase) / 4; i < int(b.End-c.TextBase)/4; i++ {
			addr := c.TextBase + uint32(4*i)
			stepInit(&c.Insts[i], c.Ok[i], addr, &st, func(a uint32, loc uint8) {
				key := uint64(a)<<8 | uint64(loc)
				if seen[key] {
					return
				}
				seen[key] = true
				ds = append(ds, Diagnostic{Kind: KindUninitRead, Addr: a,
					Line: c.Prog.LineOf(a),
					Msg: fmt.Sprintf("%s is read here but never written on any path from the entry point",
						locName(loc))})
			})
		}
	}
	return ds
}

// ---------------------------------------------------------------------------
// Register-window depth.

// depthRange is the interval of possible SAVE-nesting depths at a block
// entry. Depths saturate at the cap so recursive call cycles converge
// (and then read as "can reach any depth").
type depthRange struct{ lo, hi int }

func (d *depthRange) widen(o depthRange, cap int) bool {
	changed := false
	if o.lo < d.lo {
		d.lo = max(o.lo, -cap)
		changed = true
	}
	if o.hi > d.hi {
		d.hi = min(o.hi, cap)
		changed = true
	}
	return changed
}

// windowDepth tracks SAVE/RESTORE nesting along every path. With nwin
// windows, depth nwin-1 is the last usable level: one more SAVE wraps the
// circular window file onto live registers. A RESTORE at depth zero wraps
// below the entry window.
func (c *CFG) windowDepth(nwin int) []Diagnostic {
	if len(c.Blocks) == 0 {
		return nil
	}
	cap := nwin + 1
	in := make([]depthRange, len(c.Blocks))
	defined := make([]bool, len(c.Blocks))
	for _, r := range c.Roots {
		in[r] = depthRange{0, 0}
		defined[r] = true
	}
	for changed := true; changed; {
		changed = false
		for bi := range c.Blocks {
			b := &c.Blocks[bi]
			if !b.Reachable || !defined[bi] {
				continue
			}
			d := in[bi]
			for i := int(b.Start-c.TextBase) / 4; i < int(b.End-c.TextBase)/4; i++ {
				if !c.Ok[i] {
					continue
				}
				switch c.Insts[i].Op {
				case isa.OpSAVE:
					d.lo, d.hi = min(d.lo+1, cap), min(d.hi+1, cap)
				case isa.OpRESTORE:
					d.lo, d.hi = max(d.lo-1, -cap), max(d.hi-1, -cap)
				}
			}
			for _, s := range b.Succs {
				if !defined[s] {
					in[s] = d
					defined[s] = true
					changed = true
				} else if in[s].widen(d, cap) {
					changed = true
				}
			}
		}
	}
	var ds []Diagnostic
	seen := map[uint32]bool{}
	report := func(k Kind, addr uint32, format string, args ...interface{}) {
		if seen[addr] {
			return
		}
		seen[addr] = true
		ds = append(ds, Diagnostic{Kind: k, Addr: addr, Line: c.Prog.LineOf(addr),
			Msg: fmt.Sprintf(format, args...)})
	}
	for bi := range c.Blocks {
		b := &c.Blocks[bi]
		if !b.Reachable || !defined[bi] {
			continue
		}
		d := in[bi]
		for i := int(b.Start-c.TextBase) / 4; i < int(b.End-c.TextBase)/4; i++ {
			if !c.Ok[i] {
				continue
			}
			addr := c.TextBase + uint32(4*i)
			switch c.Insts[i].Op {
			case isa.OpSAVE:
				d.lo, d.hi = min(d.lo+1, cap), min(d.hi+1, cap)
				if d.hi >= nwin {
					if d.hi >= cap {
						report(KindWindowDepth, addr,
							"save nesting is unbounded on some path (recursive call chain): depth can exceed the %d register windows", nwin)
					} else {
						report(KindWindowDepth, addr,
							"save nesting can reach depth %d, wrapping the %d register windows", d.hi, nwin)
					}
				}
			case isa.OpRESTORE:
				if d.lo <= 0 {
					report(KindWindowUnderflow, addr,
						"restore can execute at window depth 0, wrapping below the entry window")
				}
				d.lo, d.hi = max(d.lo-1, -cap), max(d.hi-1, -cap)
			}
		}
	}
	return ds
}

// ---------------------------------------------------------------------------
// Constant-address range checking.

// memRange flags loads and stores whose effective address is a statically
// known constant outside every program section and the stack. Constants
// are tracked within one basic block (sethi/or/set/mov/add chains); the
// entry block additionally knows %sp. This only fires on addresses that
// are provably constant, so it never false-positives on computed
// addresses.
func (c *CFG) memRange() []Diagnostic {
	type rng struct{ lo, hi uint32 }
	var valid []rng
	for _, s := range c.Prog.Sections {
		valid = append(valid, rng{s.Addr, s.Addr + uint32(len(s.Bytes))})
	}
	valid = append(valid, rng{arch.StackBase, arch.StackBase + arch.StackSize})
	inRange := func(lo, hi uint32) bool {
		for _, r := range valid {
			if lo >= r.lo && hi <= r.hi {
				return true
			}
		}
		return false
	}

	var ds []Diagnostic
	var known [32]bool
	var val [32]uint32
	for bi := range c.Blocks {
		b := &c.Blocks[bi]
		if !b.Reachable {
			continue
		}
		for r := range known {
			known[r] = false
		}
		known[0] = true // %g0
		if bi == c.Entry {
			known[14], val[14] = true, arch.InitialSP // %sp as set by arch.State.LoadProgram
		}
		for i := int(b.Start-c.TextBase) / 4; i < int(b.End-c.TextBase)/4; i++ {
			if !c.Ok[i] {
				continue
			}
			in := &c.Insts[i]
			addr := c.TextBase + uint32(4*i)
			if in.IsMem() {
				ea, eaKnown := uint32(0), false
				if in.UseImm {
					if known[in.Rs1] {
						ea, eaKnown = val[in.Rs1]+uint32(in.Imm), true
					}
				} else if known[in.Rs1] && known[in.Rs2] {
					ea, eaKnown = val[in.Rs1]+val[in.Rs2], true
				}
				if eaKnown && !inRange(ea, ea+uint32(in.MemSize())) {
					ds = append(ds, Diagnostic{Kind: KindMemRange, Addr: addr,
						Line: c.Prog.LineOf(addr),
						Msg: fmt.Sprintf("constant effective address %#x (+%d bytes) is outside every program section and the stack",
							ea, in.MemSize())})
				}
			}
			// Constant propagation.
			switch in.Op {
			case isa.OpSETHI:
				known[in.Rd], val[in.Rd] = true, uint32(in.Imm)<<10
			case isa.OpOR, isa.OpADD:
				if in.UseImm && known[in.Rs1] {
					v := val[in.Rs1] + uint32(in.Imm)
					if in.Op == isa.OpOR {
						v = val[in.Rs1] | uint32(in.Imm)
					}
					known[in.Rd], val[in.Rd] = true, v
				} else if !in.UseImm && known[in.Rs1] && known[in.Rs2] {
					v := val[in.Rs1] + val[in.Rs2]
					if in.Op == isa.OpOR {
						v = val[in.Rs1] | val[in.Rs2]
					}
					known[in.Rd], val[in.Rd] = true, v
				} else if in.Rd != 0 {
					known[in.Rd] = false
				}
			default:
				var rbuf, wbuf [8]uint8
				_, writes := footprint(in, rbuf[:0], wbuf[:0])
				for _, w := range writes {
					if w < 32 {
						known[w] = false
					}
				}
			}
			known[0], val[0] = true, 0 // writes to %g0 are discarded
		}
	}
	return ds
}

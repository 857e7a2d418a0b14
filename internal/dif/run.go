package dif

import (
	"fmt"

	"dtsvliw/internal/isa"
	"dtsvliw/internal/primary"
)

// Run executes until the program halts or a limit is hit.
func (m *Machine) Run() error {
	for !m.st.Halted {
		if m.Stats.Cycles >= maxCycles {
			return fmt.Errorf("dif: cycle limit reached")
		}
		if m.maxInstrs > 0 && m.Stats.Retired >= m.maxInstrs {
			break
		}
		if !m.skipProbe {
			if g, ok := m.lookup(m.st.PC, m.st.CWP()); ok {
				m.save(m.finishGroup(m.st.PC))
				m.resetGroup()
				m.Stats.Switches++
				m.Stats.Cycles += primary.SwitchToVLIW
				m.Stats.DIFCycles += primary.SwitchToVLIW
				m.pipe.FlushState()
				if err := m.execGroup(g); err != nil {
					return err
				}
				continue
			}
		}
		m.skipProbe = false
		if err := m.stepPrimary(); err != nil {
			return err
		}
	}
	return nil
}

// stepPrimary executes one instruction on the primary engine and feeds the
// greedy scheduler.
func (m *Machine) stepPrimary() error {
	pc := m.st.PC
	cwp := m.st.CWP()
	in, out, err := m.st.StepOutcome()
	if err != nil {
		return err
	}
	m.Stats.Retired++
	eff := in.Effects(cwp, NWin, out.EA)
	cycles := m.pipe.Price(&in, eff, out)
	cycles += m.ic.Access(pc)
	if out.HasEA {
		cycles += m.dc.Access(out.EA)
	}
	m.Stats.Cycles += uint64(cycles)
	m.Stats.PrimaryCycles += uint64(cycles)
	m.schedule(&in, pc, cwp, eff, out)
	return nil
}

// memLocs expands a memory range to word-granular availability keys.
func memLocs(l isa.Loc) []isa.Loc {
	if l.Kind != isa.LocMem {
		return []isa.Loc{l}
	}
	var out []isa.Loc
	for a := l.Addr &^ 3; a < l.Addr+uint32(l.Size); a += 4 {
		out = append(out, isa.Loc{Kind: isa.LocMem, Addr: a, Size: 4})
	}
	return out
}

// schedule applies the DIF greedy algorithm: the instruction goes into the
// earliest long instruction where its sources are available and a suitable
// unit is free. The hardware table indexed by resources (paper §3.12) is
// the avail map.
func (m *Machine) schedule(in *isa.Inst, pc uint32, cwp uint8, eff isa.Effects, out isa.Outcome) {
	if in.IsNop() || in.IsUncondBranch() {
		// Still part of the trace: the group replay must cover them.
		if m.cur != nil {
			m.cur.trace = append(m.cur.trace, traceRec{addr: pc, sched: -1})
		}
		return
	}
	if !in.IsSchedulable() {
		m.save(m.finishGroup(pc))
		m.resetGroup()
		return
	}
	if m.cur == nil {
		m.cur = &group{tag: pc, cwp: cwp}
	}

	// Register-instance accounting: a write beyond the instance budget
	// ends the group.
	for _, w := range eff.Writes {
		if w.Kind == isa.LocIReg {
			if m.writes[w.Idx]+1 > Instances {
				m.Stats.InstanceEnds++
				m.save(m.finishGroup(pc))
				m.resetGroup()
				m.cur = &group{tag: pc, cwp: cwp}
				break
			}
		}
	}

	li := 0
	for _, r := range eff.Reads {
		for _, k := range memLocs(r) {
			if a, ok := m.avail[k]; ok && a > li {
				li = a
			}
		}
	}
	// Memory ordering: a store waits for prior writes (output) and prior
	// reads (anti: a long instruction reads before it writes, so equal
	// placement is allowed) of the same words.
	for _, w := range eff.Writes {
		if w.Kind == isa.LocMem {
			for _, k := range memLocs(w) {
				if a, ok := m.avail[k]; ok && a > li {
					li = a
				}
				if r, ok := m.readAvail[k]; ok && r > li {
					li = r
				}
			}
		}
	}
	isBranch := in.IsCTI()
	if isBranch && m.lastBrLI > li {
		li = m.lastBrLI // branch order is preserved
	}

	placed := -1
	for l := li; l < Height; l++ {
		if isBranch {
			if m.brUsed[l] < Branches {
				m.brUsed[l]++
				placed = l
				break
			}
		} else if m.liUsed[l] < Width-Branches {
			m.liUsed[l]++
			placed = l
			break
		}
	}
	if placed < 0 {
		// No room in this group: flush and start a new one.
		m.save(m.finishGroup(pc))
		m.resetGroup()
		m.cur = &group{tag: pc, cwp: cwp}
		placed = 0
		if isBranch {
			m.brUsed[0]++
		} else {
			m.liUsed[0]++
		}
	}

	for _, w := range eff.Writes {
		for _, k := range memLocs(w) {
			m.avail[k] = placed + 1
		}
		if w.Kind == isa.LocIReg {
			m.writes[w.Idx]++
		}
	}
	for _, r := range eff.Reads {
		if r.Kind == isa.LocMem {
			for _, k := range memLocs(r) {
				if m.readAvail[k] < placed {
					m.readAvail[k] = placed
				}
			}
		}
	}
	if isBranch {
		m.lastBrLI = placed
	}
	m.cur.trace = append(m.cur.trace, traceRec{addr: pc, sched: placed})
	if placed+1 > m.cur.numLIs {
		m.cur.numLIs = placed + 1
	}
}

// finishGroup closes the group under construction; nextAddr is where the
// trace continues.
func (m *Machine) finishGroup(nextAddr uint32) *group {
	g := m.cur
	if g == nil {
		return nil
	}
	g.nextAddr = nextAddr
	m.cur = nil
	return g
}

// execGroup replays a cached group: the interpreter follows the recorded
// trace; one cycle per long instruction reached; a deviation exits the
// group after the deviating branch's long instruction.
func (m *Machine) execGroup(g *group) error {
	for {
		m.Stats.GroupHits++
		maxLI := 0
		exited := false
		dcPenalty := 0
		for _, rec := range g.trace {
			if m.st.PC != rec.addr {
				// The recorded trace no longer matches (an earlier branch
				// went elsewhere).
				exited = true
				break
			}
			_, out, err := m.st.StepOutcome()
			if err != nil {
				return err
			}
			m.Stats.Retired++
			if out.HasEA {
				dcPenalty += m.dc.Access(out.EA)
			}
			if rec.sched >= 0 && rec.sched+1 > maxLI {
				maxLI = rec.sched + 1
			}
			if m.maxInstrs > 0 && m.Stats.Retired >= m.maxInstrs {
				break
			}
		}
		if maxLI == 0 {
			maxLI = 1
		}
		// The whole-block transfer precedes issue (paper §3.12): unlike
		// the DTSVLIW's pipelined per-long-instruction VLIW Cache access,
		// it adds to every group entry.
		cycles := GroupFetchCycles + maxLI + dcPenalty
		if exited {
			cycles++ // annulled fetch bubble
			m.Stats.TraceExits++
		}
		m.Stats.Cycles += uint64(cycles)
		m.Stats.DIFCycles += uint64(cycles)
		if m.st.Halted || (m.maxInstrs > 0 && m.Stats.Retired >= m.maxInstrs) {
			return nil
		}
		next, ok := m.lookup(m.st.PC, m.st.CWP())
		if !ok {
			m.Stats.GroupMisses++
			m.Stats.Switches++
			m.Stats.Cycles += primary.SwitchToPrimary
			m.Stats.DIFCycles += primary.SwitchToPrimary
			m.skipProbe = true
			return nil
		}
		g = next
	}
}

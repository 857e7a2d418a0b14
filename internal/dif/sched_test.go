package dif

import (
	"testing"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/asm"
	"dtsvliw/internal/mem"
)

// feedDIF executes source sequentially through the DIF machine's primary
// path (scheduling only, no cache replay) and returns the machine.
func feedDIF(t *testing.T, src string, n int) *Machine {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	memory := mem.NewMemory()
	p.Load(memory)
	memory.Map(0x7F000, 0x1000)
	st := arch.NewState(16, memory)
	st.PC = p.Entry
	st.SetReg(14, 0x7FF00)
	st.SetTextRange(p.TextBase, p.TextSize)
	m := New(st, 0)
	for i := 0; i < n && !st.Halted; i++ {
		if err := m.stepPrimary(); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestGreedyPacksIndependents: four independent ops share the first long
// instruction of a group.
func TestGreedyPacksIndependents(t *testing.T) {
	m := feedDIF(t, `
	.text 0x1000
start:
	add %g1, 1, %g2
	add %g3, 1, %g4
	add %o0, 1, %o1
	add %o2, 1, %o3
	ta 0
`, 4)
	if m.cur == nil {
		t.Fatal("no group under construction")
	}
	for _, rec := range m.cur.trace {
		if rec.sched != 0 {
			t.Fatalf("independent op scheduled at LI %d", rec.sched)
		}
	}
	if m.cur.numLIs != 1 {
		t.Fatalf("numLIs = %d", m.cur.numLIs)
	}
}

// TestGreedyRespectsFlow: a dependence chain descends one long
// instruction per op.
func TestGreedyRespectsFlow(t *testing.T) {
	m := feedDIF(t, `
	.text 0x1000
start:
	add %g1, 1, %g2
	add %g2, 1, %g3
	add %g3, 1, %g4
	ta 0
`, 3)
	want := []int{0, 1, 2}
	for i, rec := range m.cur.trace {
		if rec.sched != want[i] {
			t.Fatalf("op %d at LI %d, want %d", i, rec.sched, want[i])
		}
	}
}

// TestGreedyMovesAboveBranches: unlike the DTSVLIW (which must split), the
// DIF places an instruction from after a branch into an earlier long
// instruction via its register instances.
func TestGreedyMovesAboveBranches(t *testing.T) {
	m := feedDIF(t, `
	.text 0x1000
start:
	cmp %g1, %g2
	bne skip
	add %o0, 1, %o1
skip:
	ta 0
`, 3)
	recs := m.cur.trace
	// cmp at LI0, branch at LI1 (reads icc), add at LI0 (independent).
	if recs[2].sched != 0 {
		t.Fatalf("post-branch independent op at LI %d, want 0 (speculated)", recs[2].sched)
	}
}

// TestInstanceExhaustionEndsGroup: more writes to one register than
// instances closes the group.
func TestInstanceExhaustionEndsGroup(t *testing.T) {
	m := feedDIF(t, `
	.text 0x1000
start:
	mov 1, %g1
	mov 2, %g1
	mov 3, %g1
	mov 4, %g1
	mov 5, %g1
	ta 0
`, 5)
	if m.Stats.InstanceEnds == 0 {
		t.Fatal("instance exhaustion did not end the group")
	}
	if m.Stats.GroupsSaved == 0 {
		t.Fatal("exhausted group was not saved")
	}
}

// TestBranchOrderPreserved: a later branch never lands above an earlier
// one.
func TestBranchOrderPreserved(t *testing.T) {
	m := feedDIF(t, `
	.text 0x1000
start:
	cmp %g1, %g2
	bne a
a:	cmp %g3, %g4
	bne b
b:	ta 0
`, 4)
	var brLIs []int
	for i, rec := range m.cur.trace {
		if i == 1 || i == 3 {
			brLIs = append(brLIs, rec.sched)
		}
	}
	if len(brLIs) == 2 && brLIs[1] < brLIs[0] {
		t.Fatalf("branch order violated: %v", brLIs)
	}
}

// TestMemoryOrdering: a store never rises above a prior load or store of
// the same word.
func TestMemoryOrdering(t *testing.T) {
	m := feedDIF(t, `
	.data 0x40000
buf:	.word 7
	.text 0x1000
start:
	set buf, %l0
	ld [%l0], %o1
	st %o2, [%l0]
	ta 0
`, 4)
	recs := m.cur.trace
	ldLI := recs[2].sched
	stLI := recs[3].sched
	if stLI < ldLI {
		t.Fatalf("store at LI %d above load at LI %d", stLI, ldLI)
	}
}

// TestGroupReplayChains: a cached group chain executes end to end and the
// program still halts correctly.
func TestGroupReplayChains(t *testing.T) {
	src := `
	.text 0x1000
start:
	mov 0, %o0
	set 500, %l0
loop:
	add %o0, 2, %o0
	subcc %l0, 1, %l0
	bg loop
	ta 0
`
	p, _ := asm.Assemble(src)
	memory := mem.NewMemory()
	p.Load(memory)
	st := arch.NewState(16, memory)
	st.PC = p.Entry
	st.SetTextRange(p.TextBase, p.TextSize)
	m := New(st, 0)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if st.ExitCode != 1000 {
		t.Fatalf("exit = %d", st.ExitCode)
	}
	if m.Stats.GroupHits == 0 {
		t.Fatal("hot loop never replayed from the DIF cache")
	}
	if m.Stats.DIFCycles == 0 {
		t.Fatal("no DIF-mode cycles")
	}
}

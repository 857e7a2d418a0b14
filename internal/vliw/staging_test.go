package vliw_test

import (
	"fmt"
	"slices"
	"testing"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/core"
	"dtsvliw/internal/isa"
	"dtsvliw/internal/oracle"
	"dtsvliw/internal/progen"
	"dtsvliw/internal/sched"
	"dtsvliw/internal/vliw"
	"dtsvliw/internal/workloads"
)

// phase2Reads returns the register locations a slot reads while phase 2
// of its long instruction runs: its read footprint without memory, without
// the condition code a conditional branch resolves in phase 1 (before any
// write), and without the window pointer SAVE and RESTORE read (their new
// window is fixed at lowering).
func phase2Reads(s *sched.Slot) []isa.Loc {
	if !s.IsCopy && (s.Inst.Op == isa.OpBICC || s.Inst.Op == isa.OpFBFCC) {
		return nil
	}
	var out []isa.Loc
	for _, l := range s.Reads() {
		if l.Kind == isa.LocMem {
			continue
		}
		if l.Kind == isa.LocCWP && !s.IsCopy && (s.Inst.Op == isa.OpSAVE || s.Inst.Op == isa.OpRESTORE) {
			continue
		}
		out = append(out, l)
	}
	return out
}

// regWrites returns the register locations a slot writes: its write
// footprint without memory, plus the renaming register of every renamed
// register output, which the footprint omits without source forwarding.
func regWrites(s *sched.Slot) []isa.Loc {
	var out []isa.Loc
	for _, l := range s.Writes() {
		if l.Kind != isa.LocMem {
			out = append(out, l)
		}
	}
	for _, p := range s.Renames {
		if l := sched.RenLoc(p.Reg); p.Loc.Kind != isa.LocMem && !slices.Contains(out, l) {
			out = append(out, l)
		}
	}
	return out
}

func intersects(a, b []isa.Loc) bool {
	for _, l := range a {
		if slices.Contains(b, l) {
			return true
		}
	}
	return false
}

// definedStaging computes, straight from the slots' footprints, what
// lowering must record for b: the physical integer and FP registers the
// block writes, and each slot's staging flag in execution order. A slot
// is staged when a later slot of its long instruction reads a location
// it writes, when a multicycle slot of an earlier long instruction writes
// one of its locations and lands at the end of its long instruction, or
// when its own latency is above one; byRule counts the slots each of the
// three rules stages.
func definedStaging(b *sched.Block) (iregs []uint16, fregs []uint8, staged []bool, byRule [3]int) {
	for li := 0; li < b.NumLIs; li++ {
		var row []*sched.Slot
		for _, s := range b.LIs[li] {
			if s != nil {
				row = append(row, s)
			}
		}
		for j, s := range row {
			w := regWrites(s)
			for _, l := range w {
				switch l.Kind {
				case isa.LocIReg:
					iregs = append(iregs, l.Idx)
				case isa.LocFReg:
					fregs = append(fregs, uint8(l.Idx))
				}
			}
			var rules [3]bool
			for _, later := range row[j+1:] {
				rules[0] = rules[0] || intersects(w, phase2Reads(later))
			}
			for older := 0; older < li; older++ {
				for _, u := range b.LIs[older] {
					if u != nil && u.LatOr1() > 1 && older+u.LatOr1()-1 == li {
						rules[1] = rules[1] || intersects(w, regWrites(u))
					}
				}
			}
			rules[2] = s.LatOr1() > 1
			for r, hit := range rules {
				if hit {
					byRule[r]++
				}
			}
			staged = append(staged, rules[0] || rules[1] || rules[2])
		}
	}
	slices.Sort(iregs)
	slices.Sort(fregs)
	return slices.Compact(iregs), slices.Compact(fregs), staged, byRule
}

// TestStagingMatchesDefinition holds the lowering's write set and staging
// flags to their definition from the slot footprints, over every block
// the machine saves for the golden corpus's programs (every progen shape
// at the golden seeds, and prefixes of compress and xlisp) on ideal-8x8,
// feasible and the oracle's multicycle machine, each at 8, 16 and 32
// register windows. A register missing from the write set breaks only
// the rollback of a block that faults, which a sweep may never hit; this
// test sees it in every block.
func TestStagingMatchesDefinition(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the golden corpus on nine machines")
	}
	type program struct {
		name string
		src  string
		w    *workloads.Workload
		max  uint64
	}
	var progs []program
	for _, shape := range progen.Shapes() {
		for _, seed := range []int64{1, 2, 3, 5, 17, 101} {
			progs = append(progs, program{
				name: fmt.Sprintf("progen/%s/%d", shape, seed),
				src:  progen.Generate(progen.ShapeParams(shape, seed)),
			})
		}
	}
	for _, name := range []string{"compress", "xlisp"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		progs = append(progs, program{name: "workload/" + name, w: w, max: 60_000})
	}

	var blocks, slots, writes int
	var byRule [3]int
	for _, cname := range []string{"ideal-8x8", "feasible", "multicycle"} {
		nc, ok := oracle.ConfigByName(cname)
		if !ok {
			t.Fatalf("config %s missing", cname)
		}
		for _, nwin := range []int{8, 16, 32} {
			cfg := nc.Cfg
			cfg.NWin = nwin
			for _, p := range progs {
				cfg.MaxInstrs = p.max
				cfg.MaxCycles = 50_000_000
				var st *arch.State
				var err error
				if p.w != nil {
					st, err = p.w.NewState(nwin)
				} else {
					st, err = oracle.BuildState(p.src, nwin)
				}
				if err != nil {
					t.Fatalf("%s: %v", p.name, err)
				}
				m, err := core.NewMachine(cfg, st)
				if err != nil {
					t.Fatal(err)
				}
				run := fmt.Sprintf("%s on %s at NWin %d", p.name, cname, nwin)
				m.BlockHook = func(b *sched.Block) {
					lb := vliw.Lower(b, nwin)
					if lb == nil {
						t.Fatalf("%s: block %#08x did not lower", run, b.Tag)
					}
					wantI, wantF, wantStaged, rules := definedStaging(b)
					gotI, gotF := vliw.WriteSet(lb)
					if !slices.Equal(gotI, wantI) || !slices.Equal(gotF, wantF) {
						t.Fatalf("%s: block %#08x write set %v fp %v, footprints give %v fp %v",
							run, b.Tag, gotI, gotF, wantI, wantF)
					}
					if got := vliw.StagedOps(lb); !slices.Equal(got, wantStaged) {
						t.Fatalf("%s: block %#08x staging flags %v, footprints give %v\n%s",
							run, b.Tag, got, wantStaged, b.Dump())
					}
					blocks++
					slots += len(wantStaged)
					writes += len(wantI) + len(wantF)
					for r, n := range rules {
						byRule[r] += n
					}
				}
				if err := m.Run(); err != nil {
					t.Fatalf("%s: %v", run, err)
				}
			}
		}
	}
	t.Logf("%d blocks, %d slots, %d write-set registers; staged by a later reader %d, by a landing write %d, by latency %d",
		blocks, slots, writes, byRule[0], byRule[1], byRule[2])
	if byRule[0] == 0 || byRule[1] == 0 || byRule[2] == 0 {
		t.Fatal("the corpus leaves a staging rule unexercised")
	}
}

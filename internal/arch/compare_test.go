package arch

import (
	"fmt"
	"testing"

	"dtsvliw/internal/isa"
	"dtsvliw/internal/mem"
)

// regLoc is one location CompareRegisters compares, with the change the
// test makes to it and the message that change must produce. The test
// lists the locations in the order CompareRegisters scans them.
type regLoc struct {
	name string
	set  func(s *State)
	want func(a, b *State) string
}

// regLocs lists every location CompareRegisters compares for a state
// with nwin windows, in scan order: NWin, each physical register, each F
// register, icc, fcc, y, cwp.
func regLocs(nwin int) []regLoc {
	locs := []regLoc{{
		name: "nwin",
		set:  func(s *State) { s.NWin++ },
		want: func(a, b *State) string { return fmt.Sprintf("nwin %d != %d", a.NWin, b.NWin) },
	}}
	for i := range isa.NumPhysRegs(nwin) {
		locs = append(locs, regLoc{
			name: fmt.Sprintf("r%d", i),
			set:  func(s *State) { s.Regs[i] ^= 0x80000001 },
			want: func(a, b *State) string { return fmt.Sprintf("phys r%d: %#x != %#x", i, a.Regs[i], b.Regs[i]) },
		})
	}
	for i := range len(State{}.F) {
		locs = append(locs, regLoc{
			name: fmt.Sprintf("f%d", i),
			set:  func(s *State) { s.F[i] ^= 0x40000002 },
			want: func(a, b *State) string { return fmt.Sprintf("f%d: %#x != %#x", i, a.F[i], b.F[i]) },
		})
	}
	return append(locs,
		regLoc{"icc", func(s *State) { s.SetICC(s.ICC() ^ 5) },
			func(a, b *State) string { return fmt.Sprintf("icc: %#x != %#x", a.icc, b.icc) }},
		regLoc{"fcc", func(s *State) { s.SetFCC(s.FCC() ^ 2) },
			func(a, b *State) string { return fmt.Sprintf("fcc: %#x != %#x", a.fcc, b.fcc) }},
		regLoc{"y", func(s *State) { s.SetY(s.Y() ^ 0x10000) },
			func(a, b *State) string { return fmt.Sprintf("y: %#x != %#x", a.y, b.y) }},
		regLoc{"cwp", func(s *State) { s.SetCWP(s.CWP() + 1) },
			func(a, b *State) string { return fmt.Sprintf("cwp: %d != %d", a.cwp, b.cwp) }},
	)
}

// comparePair builds two equal states with nwin windows and
// distinct, nonzero register contents.
func comparePair(nwin int) (a, b *State) {
	a = NewState(nwin, mem.NewMemory())
	for i := range a.Regs {
		a.Regs[i] = uint32(i)*0x9E3779B1 + 1
	}
	for i := range a.F {
		a.F[i] = uint32(i)*0x85EBCA77 + 3
	}
	a.SetICC(0xA)
	a.SetFCC(1)
	a.SetY(0x1234)
	a.SetCWP(uint8(nwin - 1))
	b = a.Clone()
	return a, b
}

// TestCompareRegistersNamesFirstDifference pins CompareRegisters' bulk
// comparison to its element scan: equal states compare equal, a change
// to any one location is named with the scan's message, and of two
// changes the one earlier in scan order is named.
func TestCompareRegistersNamesFirstDifference(t *testing.T) {
	for _, nwin := range []int{8, 16, 32} {
		t.Run(fmt.Sprintf("nwin%d", nwin), func(t *testing.T) {
			a, b := comparePair(nwin)
			if diff, ok := CompareRegisters(a, b); !ok || diff != "" {
				t.Fatalf("equal states: CompareRegisters = %q, %v", diff, ok)
			}
			locs := regLocs(nwin)
			check := func(changed []int) {
				t.Helper()
				a, b := comparePair(nwin)
				for _, i := range changed {
					locs[i].set(b)
				}
				first := locs[changed[0]]
				want := first.want(a, b)
				if diff, ok := CompareRegisters(a, b); ok || diff != want {
					t.Fatalf("changed %v: CompareRegisters = %q, %v; want %q, false",
						names(locs, changed), diff, ok, want)
				}
			}
			for i := range locs {
				check([]int{i})
			}
			// Two changes: the earlier one is named, whatever the later
			// one is: the next location, the last, and one in between.
			for i := 0; i < len(locs)-1; i++ {
				check([]int{i, i + 1})
				check([]int{i, len(locs) - 1})
				check([]int{i, i + 1 + (i*7919)%(len(locs)-i-1)})
			}
		})
	}
}

func names(locs []regLoc, idx []int) []string {
	var s []string
	for _, i := range idx {
		s = append(s, locs[i].name)
	}
	return s
}

// Package workloads provides the benchmark programs of the reproduction:
// eight synthetic analogues of the SPECint95 suite (paper Table 2), one
// per program, each written in SPARC V7 assembly and mimicking the
// dominant kernel and trace behaviour of its counterpart:
//
//	compress → LZW-style hash-table compression loop
//	gcc      → branchy token scanner with switch dispatch
//	go       → board scan with irregular neighbour-checking branches
//	ijpeg    → dense 8x8 integer transform (high ILP, tight loop)
//	m88ksim  → bytecode interpreter with jump-table dispatch
//	perl     → string hashing and associative probing
//	vortex   → pointer-chasing object database traversal
//	xlisp    → recursive N-queens (the paper's own "queens 7" input)
//
// Every workload is self-validating: Validate recomputes the expected
// result with an independent Go model, so a scheduling or speculation bug
// that slips past the lockstep test machine still fails the run.
package workloads

import (
	"fmt"
	"slices"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/asm"
	"dtsvliw/internal/mem"
)

// Workload is one benchmark program.
type Workload struct {
	Name        string // SPECint95 counterpart name
	Description string
	Input       string // paper Table 2 input it stands in for
	Source      string // SPARC assembly
	// Validate checks the final architectural state against the Go
	// reference model.
	Validate func(st *arch.State) error
}

// Program assembles the workload.
func (w *Workload) Program() (*asm.Program, error) { return asm.Assemble(w.Source) }

// NewState assembles, loads and initialises a machine state ready to run.
func (w *Workload) NewState(nwin int) (*arch.State, error) {
	p, err := w.Program()
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	st := arch.NewState(nwin, mem.NewMemory())
	st.LoadProgram(p)
	return st, nil
}

// all lists the eight workloads once, in the paper's presentation order.
var all = []*Workload{compress, gcc, goboard, ijpeg, m88ksim, perl, vortex, xlisp}

// ByName returns the workload with the given SPECint95 name.
func ByName(name string) (*Workload, bool) {
	for _, w := range all {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

// Names returns all workload names in the paper's presentation order.
func Names() []string {
	names := make([]string, len(all))
	for i, w := range all {
		names[i] = w.Name
	}
	return names
}

// All returns the eight workloads in the paper's presentation order.
func All() []*Workload { return slices.Clone(all) }

// xorshift32 is the PRNG shared by the assembly workloads and their Go
// validation models.
func xorshift32(x uint32) uint32 {
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	return x
}

func expectExit(name string, want uint32) func(*arch.State) error {
	return func(st *arch.State) error {
		if !st.Halted {
			return fmt.Errorf("%s: did not halt", name)
		}
		if st.ExitCode != want {
			return fmt.Errorf("%s: exit code %d, want %d", name, st.ExitCode, want)
		}
		return nil
	}
}

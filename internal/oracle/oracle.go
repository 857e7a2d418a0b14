// Package oracle is the differential co-simulation oracle of the
// reproduction: the correctness backstop that checks the
// paper's central equivalence claim — that the DTSVLIW machine (Primary
// Processor + Scheduler Unit + VLIW Cache + VLIW Engine, with splitting,
// renaming, branch-tag speculation and aliasing recovery all enabled) is
// observationally identical to strictly sequential SPARC V7 execution.
//
// It has two layers:
//
//   - a lock-step differential runner (RunDiffProgram, or RunDiff for
//     source text): it executes one program
//     on the full DTSVLIW machine with the machine's one lockstep checker,
//     core.TestMachine, attached through Machine.Lockstep. The test
//     machine is a plain sequential interpreter over its own copy of the
//     program; at every commit checkpoint (per Primary instruction, per
//     block boundary, per trace exit, per rollback) it compares
//     registers, condition codes, PC, journaled memory and trap output,
//     plus a full final-state comparison at halt. A disagreement is a
//     *core.MismatchError carrying a disassembled window of the test
//     machine's recent instructions;
//
//   - a property-based conformance driver (Sweep): it generates seeded
//     random programs in every internal/progen shape (mixed,
//     branch-heavy, load/store-aliasing, multicycle-op), runs each
//     through the differential runner on a rotating set of machine
//     configurations, and shrinks any failing program to a minimal
//     reproducer printed as re-runnable assembly plus its seed.
//
// The cmd/dtsvliw-oracle command exposes the sweep for local runs and CI.
package oracle

import (
	"fmt"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/asm"
	"dtsvliw/internal/mem"
)

// defaultWin is the register window count of a Config that sets none.
const defaultWin = 8

// BuildState assembles source and loads it into a fresh architectural
// state with the standard layout (arch.State.LoadProgram).
func BuildState(source string, nwin int) (*arch.State, error) {
	if nwin <= 0 {
		nwin = defaultWin
	}
	p, err := asm.Assemble(source)
	if err != nil {
		return nil, err
	}
	st := arch.NewState(nwin, mem.NewMemory())
	st.LoadProgram(p)
	return st, nil
}

// ProgramError reports that the program itself is faulty (it does not
// assemble, faults sequentially, or exceeds its budget on the reference) —
// as opposed to a machine divergence.
type ProgramError struct {
	Stage string // "assemble", "reference", "machine"
	Err   error
}

func (e *ProgramError) Error() string {
	return fmt.Sprintf("oracle: %s: %v", e.Stage, e.Err)
}

func (e *ProgramError) Unwrap() error { return e.Err }

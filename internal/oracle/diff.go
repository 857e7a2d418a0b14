package oracle

import (
	"errors"
	"fmt"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/asm"
	"dtsvliw/internal/core"
	"dtsvliw/internal/mem"
)

// maxDiffCycles bounds every differential run so shrunk candidates that
// loop forever cannot hang the oracle.
const maxDiffCycles = 50_000_000

// refSlack is the instruction budget granted to the test machine when the
// machine faults and the oracle needs to know whether sequential
// execution would have finished cleanly.
const refSlack = 10_000_000

// Result summarises one clean differential run.
type Result struct {
	ExitCode uint32
	Output   []byte
	Instret  uint64 // sequential instructions retired by the test machine
	Cycles   uint64 // DTSVLIW cycles
}

// RunDiff assembles source and runs it with RunDiffProgram.
func RunDiff(source string, cfg core.Config) (*Result, error) {
	p, err := asm.Assemble(source)
	if err != nil {
		return nil, &ProgramError{Stage: "assemble", Err: err}
	}
	return RunDiffProgram(p, cfg)
}

// RunDiffProgram runs an assembled program on the full DTSVLIW machine
// under cfg with a lockstep test machine attached (core.TestMachine over
// its own copy of the program): at every commit checkpoint the test
// machine retires the instructions the machine committed and compares
// PC, every architectural register (integer windows, FP, icc, fcc, Y,
// CWP), all journaled memory locations and the trap output stream; at
// halt it also compares the exit code and the whole memory image.
//
// A *core.MismatchError means the machine is wrong; a *ProgramError means
// the program itself is faulty (it also misbehaves sequentially), which
// the conformance driver treats as a generator bug rather than a machine
// bug.
func RunDiffProgram(p *asm.Program, cfg core.Config) (*Result, error) {
	cfg = normalizeDiffConfig(cfg)

	// The program is loaded into two independent memories.
	refSt := arch.NewState(cfg.NWin, mem.NewMemory())
	refSt.LoadProgram(p)

	st := arch.NewState(cfg.NWin, mem.NewMemory())
	st.LoadProgram(p)
	m, err := core.NewMachine(cfg, st)
	if err != nil {
		return nil, &ProgramError{Stage: "machine", Err: err}
	}
	return runDiffOn(m, core.NewTestMachine(refSt))
}

// normalizeDiffConfig applies the differential runner's config policy:
// TestMode is off because RunDiff attaches its own test machine, runs are
// cycle-bounded, and the window count gets the standard default.
func normalizeDiffConfig(cfg core.Config) core.Config {
	cfg.TestMode = false
	if cfg.MaxCycles == 0 || cfg.MaxCycles > maxDiffCycles {
		cfg.MaxCycles = maxDiffCycles
	}
	if cfg.NWin <= 0 {
		cfg.NWin = defaultWin
	}
	return cfg
}

// runDiffOn runs a prepared machine in lockstep with a test machine over
// the same program. It is the shared core of RunDiffProgram and the
// pooled SweepContext.RunDiffProgram.
func runDiffOn(m *core.Machine, tm *core.TestMachine) (*Result, error) {
	m.Lockstep(tm)
	if err := m.Run(); err != nil {
		var d *core.MismatchError
		if errors.As(err, &d) {
			return nil, d
		}
		// The machine faulted outside the comparison. If sequential
		// execution finishes cleanly the fault is the machine's own —
		// that is a divergence with teeth, not a broken program.
		if refErr := finishRef(tm); refErr != nil {
			return nil, &ProgramError{Stage: "reference", Err: refErr}
		}
		return nil, &core.MismatchError{Where: "machine fault",
			Diff: fmt.Sprintf("machine error %q but the test machine halted cleanly (exit %d)", err, tm.St.ExitCode),
			Seq:  tm.Retired(), Context: tm.Context()}
	}
	return &Result{
		ExitCode: m.St.ExitCode,
		Output:   append([]byte(nil), m.St.Output...),
		Instret:  tm.Retired(),
		Cycles:   m.Stats.Cycles,
	}, nil
}

// finishRef runs the test machine to halt after a machine fault so the
// oracle can tell a machine bug from a broken program.
func finishRef(tm *core.TestMachine) error {
	for !tm.St.Halted {
		if tm.Retired() >= refSlack {
			return fmt.Errorf("test machine exceeded %d instructions without halting", uint64(refSlack))
		}
		if err := tm.Step(); err != nil {
			return err
		}
	}
	return nil
}

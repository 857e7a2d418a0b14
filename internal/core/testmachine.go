package core

import (
	"bytes"
	"fmt"
	"strings"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/isa"
)

// contextWindow is the number of recently retired test-machine
// instructions a MismatchError shows.
const contextWindow = 16

// TestMachine is the sequential test machine of the paper's test mode
// (§4): a strictly sequential SPARC V7 interpreter over its own
// architectural state, with no scheduling, no VLIW Cache and no
// speculation. Attached to a Machine by Lockstep, it retires exactly the
// instructions the machine commits at each commit checkpoint and compares
// PC, registers, journaled memory and output there; once the machine
// halts it must have halted too, with equal exit code, registers, output
// and memory. It remembers the last few instructions it retired, so a
// MismatchError can show the disassembled neighbourhood of the fault.
type TestMachine struct {
	St *arch.State

	ring [contextWindow]testStep
	n    uint64 // instructions retired since construction
}

// testStep keeps the decoded instruction, not its disassembly: rendering
// the text is deferred to Context, so the per-step cost is a struct copy
// instead of a string format.
type testStep struct {
	pc uint32
	in isa.Inst
}

// NewTestMachine builds a test machine over st, which holds the machine's
// program at the machine's point of execution but shares no storage with
// the machine's state. It enables store journaling on st.
func NewTestMachine(st *arch.State) *TestMachine {
	st.LogStores = true
	return &TestMachine{St: st}
}

// Step retires exactly one instruction and records it in the context
// ring. Stepping a halted test machine is an error: the test machine
// steps only for instructions the machine claims to have committed, so
// "already halted" means the two disagree about program length.
func (t *TestMachine) Step() error {
	if t.St.Halted {
		return fmt.Errorf("test machine halted after %d instructions but the machine kept committing", t.n)
	}
	pc := t.St.PC
	in, _, err := t.St.StepOutcome()
	if err != nil {
		return err
	}
	t.ring[t.n%contextWindow] = testStep{pc: pc, in: in}
	t.n++
	return nil
}

// Retired returns the number of instructions the test machine has retired.
func (t *TestMachine) Retired() uint64 { return t.n }

// Context renders the disassembled window of recently retired
// instructions, most recent last and marked: the instruction whose commit
// diverged, or the last one before the machines disagreed.
func (t *TestMachine) Context() string {
	if t.n == 0 {
		return "  (no instructions retired yet)"
	}
	var b strings.Builder
	for i := t.n - min(t.n, contextWindow); i < t.n; i++ {
		s := t.ring[i%contextWindow]
		marker := "  "
		if i == t.n-1 {
			marker = "=>"
		}
		fmt.Fprintf(&b, "%s [%6d] %#08x  %s\n", marker, i+1, s.pc, s.in.Disasm(s.pc))
	}
	return strings.TrimRight(b.String(), "\n")
}

// MismatchError reports a lockstep divergence: at checkpoint Where the
// DTSVLIW's architectural state differed from sequential execution, the
// equivalence the paper's test mode checks.
type MismatchError struct {
	Where   string // machine checkpoint at which the disagreement surfaced
	Diff    string // first architectural difference found
	Seq     uint64 // instructions retired by the test machine
	Context string // disassembled window of recent test-machine instructions
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("core: test-machine mismatch at %s (seq %d): %s\ntest machine context:\n%s",
		e.Where, e.Seq, e.Diff, e.Context)
}

// siteKind names the kind of commit checkpoint.
type siteKind uint8

const (
	sitePrimary     siteKind = iota // after one Primary Processor instruction
	siteFastForward                 // after the fast-forwarded prefix
	siteTraceExit                   // a branch left a block's recorded trace
	siteBlockEnd                    // a block ran to its last long instruction
	siteRollback                    // an exception rolled a block back
	siteHalt                        // the machine halted
)

// site describes a commit checkpoint. Checkpoints pass it by value and
// the test machine formats it only into a MismatchError, so a checkpoint
// that finds the machines equal formats nothing.
type site struct {
	kind siteKind
	pc   uint32 // sitePrimary: the instruction's address; siteRollback: the block's tag
	err  error  // siteRollback: the exception
}

func (w site) String() string {
	switch w.kind {
	case sitePrimary:
		return fmt.Sprintf("primary pc=%#08x", w.pc)
	case siteFastForward:
		return "fast-forward"
	case siteTraceExit:
		return "trace exit"
	case siteBlockEnd:
		return "block end"
	case siteRollback:
		return fmt.Sprintf("rollback of block %#08x (%v)", w.pc, w.err)
	}
	return "halt"
}

func (t *TestMachine) mismatch(where site, diff string) *MismatchError {
	return &MismatchError{Where: where.String(), Diff: diff, Seq: t.n, Context: t.Context()}
}

// check advances the test machine by the advance instructions m committed
// since the previous checkpoint and compares the two at a checkpoint where
// sequential execution has reached pc. On equal states it compares the
// registers in bulk, reads each journaled store on both sides and
// formats nothing.
func (t *TestMachine) check(m *Machine, advance uint64, pc uint32, where site) error {
	for i := uint64(0); i < advance; i++ {
		if err := t.Step(); err != nil {
			return t.mismatch(where, err.Error())
		}
	}
	if t.St.PC != pc {
		return t.mismatch(where, fmt.Sprintf("PC: machine %#08x, test machine %#08x", pc, t.St.PC))
	}
	if diff, ok := arch.CompareRegisters(m.St, t.St); !ok {
		return t.mismatch(where, diff)
	}
	if diff := t.compareJournals(m); diff != "" {
		return t.mismatch(where, diff)
	}
	if !bytes.Equal(m.St.Output, t.St.Output) {
		return t.mismatch(where, fmt.Sprintf("output: machine %q, test machine %q", m.St.Output, t.St.Output))
	}
	return nil
}

// compareJournals compares both memories at every address either side
// stored to since the previous checkpoint — the machine's store log
// (Primary Processor and VLIW Engine stores) and the test machine's —
// then empties both for reuse.
func (t *TestMachine) compareJournals(m *Machine) string {
	for _, recs := range [...][]arch.StoreRec{m.St.StoreLog, t.St.StoreLog} {
		for _, r := range recs {
			a, errA := m.St.Mem.Read(r.Addr, r.Size)
			b, errB := t.St.Mem.Read(r.Addr, r.Size)
			if errA != nil || errB != nil {
				return fmt.Sprintf("mem[%#08x/%d]: machine read %v, test machine read %v",
					r.Addr, r.Size, errA, errB)
			}
			if a != b {
				return fmt.Sprintf("mem[%#08x/%d]: machine %#x, test machine %#x", r.Addr, r.Size, a, b)
			}
		}
	}
	m.St.StoreLog = m.St.StoreLog[:0]
	t.St.StoreLog = t.St.StoreLog[:0]
	return ""
}

// final is the strict comparison once the machine has halted: the test
// machine must have halted too, with equal exit code, registers, output
// and full memory image.
func (t *TestMachine) final(m *Machine) error {
	where := site{kind: siteHalt}
	if !t.St.Halted {
		return t.mismatch(where, fmt.Sprintf("machine halted but the test machine is still at PC %#08x", t.St.PC))
	}
	if m.St.ExitCode != t.St.ExitCode {
		return t.mismatch(where, fmt.Sprintf("exit code: machine %d, test machine %d", m.St.ExitCode, t.St.ExitCode))
	}
	if diff, ok := arch.CompareRegisters(m.St, t.St); !ok {
		return t.mismatch(where, diff)
	}
	if !bytes.Equal(m.St.Output, t.St.Output) {
		return t.mismatch(where, fmt.Sprintf("output: machine %q, test machine %q", m.St.Output, t.St.Output))
	}
	if addr, differs := m.St.Mem.FirstDiff(t.St.Mem); differs {
		a, _ := m.St.Mem.Read(addr, 1)
		b, _ := t.St.Mem.Read(addr, 1)
		return t.mismatch(where, fmt.Sprintf("mem[%#08x]: machine %#02x, test machine %#02x", addr, a, b))
	}
	return nil
}

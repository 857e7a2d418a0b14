// Package isa implements the SPARC Version 7 instruction subset executed by
// the DTSVLIW machine: 32-bit binary encodings (formats 1, 2 and 3), a
// decoder and encoder, dependency analysis in terms of physical storage
// locations, and execution semantics over a pluggable environment so that
// the sequential reference machine, the Primary Processor and the VLIW
// Engine all share one definition of every instruction.
//
// The subset covers the integer unit (ALU, shifts, SETHI, MULSCC, Y
// register, SAVE/RESTORE register windows, loads/stores including
// doubleword and atomic forms, CALL/JMPL/Bicc/Ticc) and the floating-point
// unit (single/double arithmetic, conversions, compares, FBfcc). Branch
// delay slots are not modelled; see DESIGN.md §5.
package isa

import "fmt"

// Op enumerates the decoded operations of the SPARC V7 subset.
type Op uint8

// Operation codes. The groupings matter to other packages: IsALU, IsLoad,
// IsStore, IsBranch and friends are defined over contiguous ranges.
const (
	OpInvalid Op = iota

	// Integer ALU.
	OpADD
	OpADDCC
	OpADDX
	OpADDXCC
	OpSUB
	OpSUBCC
	OpSUBX
	OpSUBXCC
	OpAND
	OpANDCC
	OpANDN
	OpANDNCC
	OpOR
	OpORCC
	OpORN
	OpORNCC
	OpXOR
	OpXORCC
	OpXNOR
	OpXNORCC
	OpSLL
	OpSRL
	OpSRA
	OpSETHI
	OpMULSCC
	OpRDY
	OpWRY
	OpSAVE
	OpRESTORE

	// Control transfer.
	OpCALL
	OpBICC
	OpFBFCC
	OpJMPL
	OpTICC

	// Integer memory.
	OpLD
	OpLDUB
	OpLDSB
	OpLDUH
	OpLDSH
	OpLDD
	OpST
	OpSTB
	OpSTH
	OpSTD
	OpLDSTUB
	OpSWAP

	// Floating-point memory.
	OpLDF
	OpLDDF
	OpSTF
	OpSTDF

	// Floating-point operate.
	OpFADDS
	OpFADDD
	OpFSUBS
	OpFSUBD
	OpFMULS
	OpFMULD
	OpFDIVS
	OpFDIVD
	OpFMOVS
	OpFNEGS
	OpFABSS
	OpFITOS
	OpFITOD
	OpFSTOI
	OpFDTOI
	OpFSTOD
	OpFDTOS
	OpFCMPS
	OpFCMPD

	OpUNIMP

	numOps
)

// Inst is one decoded instruction. The zero value is invalid.
type Inst struct {
	Raw    uint32 // original encoding
	Op     Op
	Rd     uint8 // destination register field
	Rs1    uint8
	Rs2    uint8
	UseImm bool  // format-3 i bit: second operand is Imm, not Rs2
	Imm    int32 // simm13, or imm22 (SETHI), or word displacement (CALL/Bicc/FBfcc)
	Cond   uint8 // condition field of Bicc/FBfcc/Ticc
	Annul  bool  // a bit of Bicc/FBfcc (decoded but unused: no delay slots)
}

// Condition codes for Bicc and Ticc (icc-based).
const (
	CondN   = 0  // never
	CondE   = 1  // equal (Z)
	CondLE  = 2  // less or equal
	CondL   = 3  // less
	CondLEU = 4  // less or equal unsigned
	CondCS  = 5  // carry set (less unsigned)
	CondNEG = 6  // negative
	CondVS  = 7  // overflow set
	CondA   = 8  // always
	CondNE  = 9  // not equal
	CondG   = 10 // greater
	CondGE  = 11 // greater or equal
	CondGU  = 12 // greater unsigned
	CondCC  = 13 // carry clear
	CondPOS = 14 // positive
	CondVC  = 15 // overflow clear
)

// icc bits, stored in the low nibble of the PSR model.
const (
	ICCC uint8 = 1 << 0 // carry
	ICCV uint8 = 1 << 1 // overflow
	ICCZ uint8 = 1 << 2 // zero
	ICCN uint8 = 1 << 3 // negative
)

// fcc values (floating-point condition code).
const (
	FCCE uint8 = 0 // equal
	FCCL uint8 = 1 // less
	FCCG uint8 = 2 // greater
	FCCU uint8 = 3 // unordered
)

// FUClass identifies the functional-unit class an instruction executes on.
type FUClass uint8

const (
	FUInt FUClass = iota
	FULoadStore
	FUFloat
	FUBranch
	FUAny // configuration wildcard: a slot that accepts any class
)

func (c FUClass) String() string {
	switch c {
	case FUInt:
		return "int"
	case FULoadStore:
		return "ldst"
	case FUFloat:
		return "fp"
	case FUBranch:
		return "br"
	case FUAny:
		return "any"
	}
	return "?"
}

// Latencies is the machine's multicycle latency table (the paper's
// companion study [14]): the cycles a load, a floating-point operation
// and a floating-point division take to produce their result. Zero or
// one keeps the Table 1 single-cycle baseline. The Scheduler Unit, the
// Primary Processor and the machine configuration share this one table.
type Latencies struct {
	LoadLatency  int
	FPLatency    int
	FPDivLatency int
}

// Latency returns the cycles in takes to produce its result, at least 1.
func (l Latencies) Latency(in *Inst) int {
	n := 1
	switch {
	case in.IsLoad():
		n = l.LoadLatency
	case in.Op == OpFDIVS || in.Op == OpFDIVD:
		n = l.FPDivLatency
	case in.Op >= OpFADDS && in.Op <= OpFCMPD:
		n = l.FPLatency
	}
	return max(n, 1)
}

// MaxLatency returns the table's longest latency, at least 1.
func (l Latencies) MaxLatency() int {
	return max(1, l.LoadLatency, l.FPLatency, l.FPDivLatency)
}

// Class reports the functional-unit class of the instruction.
func (in *Inst) Class() FUClass {
	switch {
	case in.Op >= OpLD && in.Op <= OpSTDF:
		return FULoadStore
	case in.Op >= OpFADDS && in.Op <= OpFCMPD:
		return FUFloat
	case in.Op == OpBICC || in.Op == OpFBFCC || in.Op == OpJMPL || in.Op == OpCALL || in.Op == OpTICC:
		return FUBranch
	default:
		return FUInt
	}
}

// IsLoad reports whether the instruction reads memory (SWAP and LDSTUB
// count as both load and store but are non-schedulable anyway).
func (in *Inst) IsLoad() bool {
	switch in.Op {
	case OpLD, OpLDUB, OpLDSB, OpLDUH, OpLDSH, OpLDD, OpLDSTUB, OpSWAP, OpLDF, OpLDDF:
		return true
	}
	return false
}

// IsStore reports whether the instruction writes memory.
func (in *Inst) IsStore() bool {
	switch in.Op {
	case OpST, OpSTB, OpSTH, OpSTD, OpLDSTUB, OpSWAP, OpSTF, OpSTDF:
		return true
	}
	return false
}

// IsMem reports whether the instruction accesses memory.
func (in *Inst) IsMem() bool { return in.IsLoad() || in.IsStore() }

// MemSize returns the memory access width in bytes (0 for non-memory ops).
func (in *Inst) MemSize() uint8 {
	switch in.Op {
	case OpLDUB, OpLDSB, OpSTB, OpLDSTUB:
		return 1
	case OpLDUH, OpLDSH, OpSTH:
		return 2
	case OpLD, OpST, OpSWAP, OpLDF, OpSTF:
		return 4
	case OpLDD, OpSTD, OpLDDF, OpSTDF:
		return 8
	}
	return 0
}

// IsCondBranch reports whether the instruction is a conditional branch that
// establishes a control dependency (Bicc other than always/never, FBfcc
// other than always/never). Ticc is handled as non-schedulable.
func (in *Inst) IsCondBranch() bool {
	return (in.Op == OpBICC || in.Op == OpFBFCC) && in.Cond != CondA && in.Cond != CondN
}

// IsIndirectBranch reports whether the instruction computes its target from
// registers (JMPL: returns, indirect calls).
func (in *Inst) IsIndirectBranch() bool { return in.Op == OpJMPL }

// IsCTI reports whether the instruction is a control-transfer instruction.
func (in *Inst) IsCTI() bool {
	switch in.Op {
	case OpCALL, OpJMPL, OpTICC:
		return true
	case OpBICC, OpFBFCC:
		return in.Cond != CondN
	}
	return false
}

// IsUncondBranch reports whether the instruction is an unconditional direct
// branch, which the Scheduler Unit drops from the trace (paper §3.9). CALL
// is not included: it writes %o7 and must be scheduled.
func (in *Inst) IsUncondBranch() bool {
	return (in.Op == OpBICC || in.Op == OpFBFCC) && in.Cond == CondA
}

// IsNop reports whether the instruction has no architectural effect and is
// ignored by the Scheduler Unit: the canonical SPARC nop (sethi 0, %g0),
// any ALU op writing %g0 with no condition-code side effect, and
// branch-never.
func (in *Inst) IsNop() bool {
	switch in.Op {
	case OpSETHI:
		return in.Rd == 0
	case OpADD, OpSUB, OpAND, OpANDN, OpOR, OpORN, OpXOR, OpXNOR, OpSLL, OpSRL, OpSRA:
		return in.Rd == 0
	case OpBICC, OpFBFCC:
		return in.Cond == CondN
	}
	return false
}

// IsSchedulable reports whether the Scheduler Unit may place the
// instruction in a block (paper §3.9): traps and the atomic
// multiprocessing ops (LDSTUB, SWAP) must always execute on the Primary
// Processor and flush the scheduling list.
func (in *Inst) IsSchedulable() bool {
	switch in.Op {
	case OpTICC, OpLDSTUB, OpSWAP, OpUNIMP, OpInvalid:
		return false
	}
	return true
}

// BranchTarget returns the target of a direct CTI (CALL, Bicc, FBfcc)
// encoded at address addr.
func (in *Inst) BranchTarget(addr uint32) uint32 {
	return addr + uint32(in.Imm)*4
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

var opNames = [numOps]string{
	OpInvalid: "invalid",
	OpADD:     "add", OpADDCC: "addcc", OpADDX: "addx", OpADDXCC: "addxcc",
	OpSUB: "sub", OpSUBCC: "subcc", OpSUBX: "subx", OpSUBXCC: "subxcc",
	OpAND: "and", OpANDCC: "andcc", OpANDN: "andn", OpANDNCC: "andncc",
	OpOR: "or", OpORCC: "orcc", OpORN: "orn", OpORNCC: "orncc",
	OpXOR: "xor", OpXORCC: "xorcc", OpXNOR: "xnor", OpXNORCC: "xnorcc",
	OpSLL: "sll", OpSRL: "srl", OpSRA: "sra",
	OpSETHI: "sethi", OpMULSCC: "mulscc", OpRDY: "rd", OpWRY: "wr",
	OpSAVE: "save", OpRESTORE: "restore",
	OpCALL: "call", OpBICC: "b", OpFBFCC: "fb", OpJMPL: "jmpl", OpTICC: "t",
	OpLD: "ld", OpLDUB: "ldub", OpLDSB: "ldsb", OpLDUH: "lduh", OpLDSH: "ldsh",
	OpLDD: "ldd", OpST: "st", OpSTB: "stb", OpSTH: "sth", OpSTD: "std",
	OpLDSTUB: "ldstub", OpSWAP: "swap",
	OpLDF: "ldf", OpLDDF: "lddf", OpSTF: "stf", OpSTDF: "stdf",
	OpFADDS: "fadds", OpFADDD: "faddd", OpFSUBS: "fsubs", OpFSUBD: "fsubd",
	OpFMULS: "fmuls", OpFMULD: "fmuld", OpFDIVS: "fdivs", OpFDIVD: "fdivd",
	OpFMOVS: "fmovs", OpFNEGS: "fnegs", OpFABSS: "fabss",
	OpFITOS: "fitos", OpFITOD: "fitod", OpFSTOI: "fstoi", OpFDTOI: "fdtoi",
	OpFSTOD: "fstod", OpFDTOS: "fdtos", OpFCMPS: "fcmps", OpFCMPD: "fcmpd",
	OpUNIMP: "unimp",
}

// CondName returns the assembler mnemonic suffix for an icc condition.
func CondName(c uint8) string {
	names := [16]string{"n", "e", "le", "l", "leu", "cs", "neg", "vs",
		"a", "ne", "g", "ge", "gu", "cc", "pos", "vc"}
	return names[c&15]
}

// FCondName returns the assembler mnemonic suffix for an fcc condition.
func FCondName(c uint8) string {
	names := [16]string{"n", "ne", "lg", "ul", "l", "ug", "g", "u",
		"a", "e", "ue", "ge", "uge", "le", "ule", "o"}
	return names[c&15]
}

// EvalICC evaluates an icc condition against the 4-bit condition codes.
func EvalICC(cond uint8, icc uint8) bool {
	n := icc&ICCN != 0
	z := icc&ICCZ != 0
	v := icc&ICCV != 0
	c := icc&ICCC != 0
	switch cond & 15 {
	case CondN:
		return false
	case CondE:
		return z
	case CondLE:
		return z || (n != v)
	case CondL:
		return n != v
	case CondLEU:
		return c || z
	case CondCS:
		return c
	case CondNEG:
		return n
	case CondVS:
		return v
	case CondA:
		return true
	case CondNE:
		return !z
	case CondG:
		return !(z || (n != v))
	case CondGE:
		return n == v
	case CondGU:
		return !(c || z)
	case CondCC:
		return !c
	case CondPOS:
		return !n
	default: // CondVC
		return !v
	}
}

// EvalFCC evaluates an fcc condition against the 2-bit fcc value.
func EvalFCC(cond uint8, fcc uint8) bool {
	e := fcc == FCCE
	l := fcc == FCCL
	g := fcc == FCCG
	u := fcc == FCCU
	switch cond & 15 {
	case 0:
		return false
	case 1: // ne
		return l || g || u
	case 2: // lg
		return l || g
	case 3: // ul
		return u || l
	case 4: // l
		return l
	case 5: // ug
		return u || g
	case 6: // g
		return g
	case 7: // u
		return u
	case 8:
		return true
	case 9: // e
		return e
	case 10: // ue
		return u || e
	case 11: // ge
		return g || e
	case 12: // uge
		return u || g || e
	case 13: // le
		return l || e
	case 14: // ule
		return u || l || e
	default: // o
		return e || l || g
	}
}

package isa

import "fmt"

// SPARC format-3 op3 field values for op = 2 (arithmetic/control).
const (
	op3ADD     = 0x00
	op3AND     = 0x01
	op3OR      = 0x02
	op3XOR     = 0x03
	op3SUB     = 0x04
	op3ANDN    = 0x05
	op3ORN     = 0x06
	op3XNOR    = 0x07
	op3ADDX    = 0x08
	op3SUBX    = 0x0C
	op3ADDCC   = 0x10
	op3ANDCC   = 0x11
	op3ORCC    = 0x12
	op3XORCC   = 0x13
	op3SUBCC   = 0x14
	op3ANDNCC  = 0x15
	op3ORNCC   = 0x16
	op3XNORCC  = 0x17
	op3ADDXCC  = 0x18
	op3SUBXCC  = 0x1C
	op3MULSCC  = 0x24
	op3SLL     = 0x25
	op3SRL     = 0x26
	op3SRA     = 0x27
	op3RDY     = 0x28
	op3WRY     = 0x30
	op3FPOP1   = 0x34
	op3FPOP2   = 0x35
	op3JMPL    = 0x38
	op3TICC    = 0x3A
	op3SAVE    = 0x3C
	op3RESTORE = 0x3D
)

// SPARC format-3 op3 field values for op = 3 (memory).
const (
	op3LD     = 0x00
	op3LDUB   = 0x01
	op3LDUH   = 0x02
	op3LDD    = 0x03
	op3ST     = 0x04
	op3STB    = 0x05
	op3STH    = 0x06
	op3STD    = 0x07
	op3LDSB   = 0x09
	op3LDSH   = 0x0A
	op3LDSTUB = 0x0D
	op3SWAP   = 0x0F
	op3LDF    = 0x20
	op3LDDF   = 0x23
	op3STF    = 0x24
	op3STDF   = 0x27
)

// FPop1 opf field values.
const (
	opfFMOVS = 0x01
	opfFNEGS = 0x05
	opfFABSS = 0x09
	opfFADDS = 0x41
	opfFADDD = 0x42
	opfFSUBS = 0x45
	opfFSUBD = 0x46
	opfFMULS = 0x49
	opfFMULD = 0x4A
	opfFDIVS = 0x4D
	opfFDIVD = 0x4E
	opfFITOS = 0xC4
	opfFDTOS = 0xC6
	opfFITOD = 0xC8
	opfFSTOD = 0xC9
	opfFSTOI = 0xD1
	opfFDTOI = 0xD2
	// FPop2
	opfFCMPS = 0x51
	opfFCMPD = 0x52
)

var aluOp3 = map[uint32]Op{
	op3ADD: OpADD, op3AND: OpAND, op3OR: OpOR, op3XOR: OpXOR,
	op3SUB: OpSUB, op3ANDN: OpANDN, op3ORN: OpORN, op3XNOR: OpXNOR,
	op3ADDX: OpADDX, op3SUBX: OpSUBX,
	op3ADDCC: OpADDCC, op3ANDCC: OpANDCC, op3ORCC: OpORCC, op3XORCC: OpXORCC,
	op3SUBCC: OpSUBCC, op3ANDNCC: OpANDNCC, op3ORNCC: OpORNCC, op3XNORCC: OpXNORCC,
	op3ADDXCC: OpADDXCC, op3SUBXCC: OpSUBXCC,
	op3MULSCC: OpMULSCC, op3SLL: OpSLL, op3SRL: OpSRL, op3SRA: OpSRA,
	op3JMPL: OpJMPL, op3SAVE: OpSAVE, op3RESTORE: OpRESTORE,
}

var memOp3 = map[uint32]Op{
	op3LD: OpLD, op3LDUB: OpLDUB, op3LDUH: OpLDUH, op3LDD: OpLDD,
	op3ST: OpST, op3STB: OpSTB, op3STH: OpSTH, op3STD: OpSTD,
	op3LDSB: OpLDSB, op3LDSH: OpLDSH, op3LDSTUB: OpLDSTUB, op3SWAP: OpSWAP,
	op3LDF: OpLDF, op3LDDF: OpLDDF, op3STF: OpSTF, op3STDF: OpSTDF,
}

var fpop1 = map[uint32]Op{
	opfFMOVS: OpFMOVS, opfFNEGS: OpFNEGS, opfFABSS: OpFABSS,
	opfFADDS: OpFADDS, opfFADDD: OpFADDD, opfFSUBS: OpFSUBS, opfFSUBD: OpFSUBD,
	opfFMULS: OpFMULS, opfFMULD: OpFMULD, opfFDIVS: OpFDIVS, opfFDIVD: OpFDIVD,
	opfFITOS: OpFITOS, opfFITOD: OpFITOD, opfFSTOI: OpFSTOI, opfFDTOI: OpFDTOI,
	opfFSTOD: OpFSTOD, opfFDTOS: OpFDTOS,
}

func signExtend(v uint32, bits uint) int32 {
	shift := 32 - bits
	return int32(v<<shift) >> shift
}

// Decode decodes one 32-bit SPARC V7 instruction word.
func Decode(raw uint32) (Inst, error) {
	in := Inst{Raw: raw}
	op := raw >> 30
	switch op {
	case 1: // format 1: CALL
		in.Op = OpCALL
		in.Imm = signExtend(raw&0x3FFFFFFF, 30)
		in.Rd = 15 // writes %o7
		return in, nil

	case 0: // format 2
		op2 := (raw >> 22) & 7
		switch op2 {
		case 4: // SETHI
			in.Op = OpSETHI
			in.Rd = uint8((raw >> 25) & 31)
			in.Imm = int32(raw & 0x3FFFFF)
			return in, nil
		case 2, 6: // Bicc, FBfcc
			if op2 == 2 {
				in.Op = OpBICC
			} else {
				in.Op = OpFBFCC
			}
			in.Annul = raw&(1<<29) != 0
			in.Cond = uint8((raw >> 25) & 15)
			in.Imm = signExtend(raw&0x3FFFFF, 22)
			return in, nil
		case 0:
			in.Op = OpUNIMP
			in.Imm = int32(raw & 0x3FFFFF)
			return in, nil
		}
		return in, fmt.Errorf("isa: unsupported format-2 op2=%d (raw %#08x)", op2, raw)

	case 2: // format 3: arithmetic / control / FPop
		op3 := (raw >> 19) & 0x3F
		in.Rd = uint8((raw >> 25) & 31)
		in.Rs1 = uint8((raw >> 14) & 31)
		in.UseImm = raw&(1<<13) != 0
		if in.UseImm {
			in.Imm = signExtend(raw&0x1FFF, 13)
		} else {
			in.Rs2 = uint8(raw & 31)
		}
		switch op3 {
		case op3RDY:
			in.Op = OpRDY
			return in, nil
		case op3WRY:
			in.Op = OpWRY
			return in, nil
		case op3TICC:
			in.Op = OpTICC
			in.Cond = uint8((raw >> 25) & 15)
			in.Rd = 0
			return in, nil
		case op3FPOP1:
			opf := (raw >> 5) & 0x1FF
			fop, ok := fpop1[opf]
			if !ok {
				return in, fmt.Errorf("isa: unsupported FPop1 opf=%#x (raw %#08x)", opf, raw)
			}
			in.Op = fop
			in.UseImm = false
			in.Rs2 = uint8(raw & 31)
			return in, nil
		case op3FPOP2:
			opf := (raw >> 5) & 0x1FF
			switch opf {
			case opfFCMPS:
				in.Op = OpFCMPS
			case opfFCMPD:
				in.Op = OpFCMPD
			default:
				return in, fmt.Errorf("isa: unsupported FPop2 opf=%#x (raw %#08x)", opf, raw)
			}
			in.UseImm = false
			in.Rs2 = uint8(raw & 31)
			return in, nil
		}
		if aop, ok := aluOp3[op3]; ok {
			in.Op = aop
			return in, nil
		}
		return in, fmt.Errorf("isa: unsupported op3=%#x (raw %#08x)", op3, raw)

	default: // op == 3: memory
		op3 := (raw >> 19) & 0x3F
		mop, ok := memOp3[op3]
		if !ok {
			return in, fmt.Errorf("isa: unsupported memory op3=%#x (raw %#08x)", op3, raw)
		}
		in.Op = mop
		in.Rd = uint8((raw >> 25) & 31)
		in.Rs1 = uint8((raw >> 14) & 31)
		in.UseImm = raw&(1<<13) != 0
		if in.UseImm {
			in.Imm = signExtend(raw&0x1FFF, 13)
		} else {
			in.Rs2 = uint8(raw & 31)
		}
		return in, nil
	}
}

// opToOp3 is the inverse of the decode tables, used by Encode.
var opToOp3 = map[Op]struct {
	op  uint32
	op3 uint32
}{
	OpADD: {2, op3ADD}, OpAND: {2, op3AND}, OpOR: {2, op3OR}, OpXOR: {2, op3XOR},
	OpSUB: {2, op3SUB}, OpANDN: {2, op3ANDN}, OpORN: {2, op3ORN}, OpXNOR: {2, op3XNOR},
	OpADDX: {2, op3ADDX}, OpSUBX: {2, op3SUBX},
	OpADDCC: {2, op3ADDCC}, OpANDCC: {2, op3ANDCC}, OpORCC: {2, op3ORCC},
	OpXORCC: {2, op3XORCC}, OpSUBCC: {2, op3SUBCC}, OpANDNCC: {2, op3ANDNCC},
	OpORNCC: {2, op3ORNCC}, OpXNORCC: {2, op3XNORCC},
	OpADDXCC: {2, op3ADDXCC}, OpSUBXCC: {2, op3SUBXCC},
	OpMULSCC: {2, op3MULSCC}, OpSLL: {2, op3SLL}, OpSRL: {2, op3SRL}, OpSRA: {2, op3SRA},
	OpRDY: {2, op3RDY}, OpWRY: {2, op3WRY},
	OpJMPL: {2, op3JMPL}, OpTICC: {2, op3TICC}, OpSAVE: {2, op3SAVE}, OpRESTORE: {2, op3RESTORE},
	OpLD: {3, op3LD}, OpLDUB: {3, op3LDUB}, OpLDUH: {3, op3LDUH}, OpLDD: {3, op3LDD},
	OpST: {3, op3ST}, OpSTB: {3, op3STB}, OpSTH: {3, op3STH}, OpSTD: {3, op3STD},
	OpLDSB: {3, op3LDSB}, OpLDSH: {3, op3LDSH}, OpLDSTUB: {3, op3LDSTUB}, OpSWAP: {3, op3SWAP},
	OpLDF: {3, op3LDF}, OpLDDF: {3, op3LDDF}, OpSTF: {3, op3STF}, OpSTDF: {3, op3STDF},
}

var opToOpf = map[Op]struct {
	op3 uint32
	opf uint32
}{
	OpFMOVS: {op3FPOP1, opfFMOVS}, OpFNEGS: {op3FPOP1, opfFNEGS}, OpFABSS: {op3FPOP1, opfFABSS},
	OpFADDS: {op3FPOP1, opfFADDS}, OpFADDD: {op3FPOP1, opfFADDD},
	OpFSUBS: {op3FPOP1, opfFSUBS}, OpFSUBD: {op3FPOP1, opfFSUBD},
	OpFMULS: {op3FPOP1, opfFMULS}, OpFMULD: {op3FPOP1, opfFMULD},
	OpFDIVS: {op3FPOP1, opfFDIVS}, OpFDIVD: {op3FPOP1, opfFDIVD},
	OpFITOS: {op3FPOP1, opfFITOS}, OpFITOD: {op3FPOP1, opfFITOD},
	OpFSTOI: {op3FPOP1, opfFSTOI}, OpFDTOI: {op3FPOP1, opfFDTOI},
	OpFSTOD: {op3FPOP1, opfFSTOD}, OpFDTOS: {op3FPOP1, opfFDTOS},
	OpFCMPS: {op3FPOP2, opfFCMPS}, OpFCMPD: {op3FPOP2, opfFCMPD},
}

// Encode produces the 32-bit SPARC encoding of the instruction. It is the
// inverse of Decode for all supported operations.
func Encode(in Inst) (uint32, error) {
	switch in.Op {
	case OpCALL:
		return 1<<30 | uint32(in.Imm)&0x3FFFFFFF, nil
	case OpSETHI:
		return uint32(in.Rd)<<25 | 4<<22 | uint32(in.Imm)&0x3FFFFF, nil
	case OpBICC, OpFBFCC:
		if in.Imm < -(1<<21) || in.Imm >= 1<<21 {
			return 0, fmt.Errorf("isa: disp22 out of range: %d", in.Imm)
		}
		var op2 uint32 = 2
		if in.Op == OpFBFCC {
			op2 = 6
		}
		var a uint32
		if in.Annul {
			a = 1 << 29
		}
		return a | uint32(in.Cond&15)<<25 | op2<<22 | uint32(in.Imm)&0x3FFFFF, nil
	case OpUNIMP:
		return uint32(in.Imm) & 0x3FFFFF, nil
	case OpTICC:
		w := uint32(2)<<30 | uint32(in.Cond&15)<<25 | uint32(op3TICC)<<19 | uint32(in.Rs1&31)<<14
		if in.UseImm {
			w |= 1<<13 | uint32(in.Imm)&0x1FFF
		} else {
			w |= uint32(in.Rs2 & 31)
		}
		return w, nil
	}
	if f, ok := opToOpf[in.Op]; ok {
		return uint32(2)<<30 | uint32(in.Rd&31)<<25 | f.op3<<19 |
			uint32(in.Rs1&31)<<14 | f.opf<<5 | uint32(in.Rs2&31), nil
	}
	f, ok := opToOp3[in.Op]
	if !ok {
		return 0, fmt.Errorf("isa: cannot encode op %v", in.Op)
	}
	w := f.op<<30 | uint32(in.Rd&31)<<25 | f.op3<<19 | uint32(in.Rs1&31)<<14
	if in.UseImm {
		if in.Imm < -4096 || in.Imm > 4095 {
			return 0, fmt.Errorf("isa: simm13 out of range: %d", in.Imm)
		}
		w |= 1<<13 | uint32(in.Imm)&0x1FFF
	} else {
		w |= uint32(in.Rs2 & 31)
	}
	return w, nil
}

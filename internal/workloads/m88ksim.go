package workloads

import (
	"fmt"
	"strings"
)

// m88ksim: a bytecode virtual machine with jump-table dispatch — the
// fetch/decode/dispatch interpreter loop of SPEC m88ksim (a Motorola
// 88100 simulator). The jmpl-based dispatch exercises indirect-branch
// trace exits heavily.

const (
	m88kSeed = 0x7F4A7C15
	m88kReps = 60
)

// Virtual machine opcodes.
const (
	vmAdd = iota
	vmSub
	vmXor
	vmAnd
	vmShl
	vmAddi
	vmLoad
	vmStore
	vmDecJnz
	vmHalt
	vmLi
)

func vmEnc(op, rd, rs1, rs2 uint32) uint32 {
	return op | rd<<8 | rs1<<16 | rs2<<24
}

// m88kProgram deterministically generates the guest bytecode: register
// initialisation, then looped segments of arithmetic and memory traffic.
func m88kProgram() []uint32 {
	x := uint32(m88kSeed)
	rnd := func(n uint32) uint32 {
		x = xorshift32(x)
		return x % n
	}
	var prog []uint32
	for r := uint32(0); r < 8; r++ {
		prog = append(prog, vmEnc(vmAddi, r, r, rnd(200)))
	}
	for s := 0; s < 12; s++ {
		iters := 2 + rnd(6)
		prog = append(prog, vmEnc(vmLi, 7, 0, iters))
		body := len(prog)
		blen := int(3 + rnd(6))
		for b := 0; b < blen; b++ {
			op := rnd(8)
			rd := rnd(7) // keep r7 as the loop counter
			rs1 := rnd(7)
			rs2 := rnd(7)
			if op == vmAddi || op == vmShl {
				rs2 = rnd(200)
			}
			prog = append(prog, vmEnc(op, rd, rs1, rs2))
		}
		back := uint32(len(prog)+1) - uint32(body)
		prog = append(prog, vmEnc(vmDecJnz, 7, 0, back))
	}
	prog = append(prog, vmEnc(vmHalt, 0, 0, 0))
	return prog
}

// m88kModel interprets the bytecode in Go, mirroring the assembly VM.
func m88kModel() uint32 {
	prog := m88kProgram()
	var vr [8]uint32
	var vmem [64]uint32
	for rep := 0; rep < m88kReps; rep++ {
		pc := 0
		for {
			w := prog[pc]
			pc++
			op := w & 0xFF
			rd := (w >> 8) & 7
			rs1 := (w >> 16) & 7
			rs2 := w >> 24
			switch op {
			case vmAdd:
				vr[rd] = vr[rs1] + vr[rs2&7]
			case vmSub:
				vr[rd] = vr[rs1] - vr[rs2&7]
			case vmXor:
				vr[rd] = vr[rs1] ^ vr[rs2&7]
			case vmAnd:
				vr[rd] = vr[rs1] & vr[rs2&7]
			case vmShl:
				vr[rd] = vr[rs1] << (rs2 & 7)
			case vmAddi:
				vr[rd] = vr[rs1] + rs2
			case vmLoad:
				vr[rd] = vmem[vr[rs1]&63]
			case vmStore:
				vmem[vr[rs1]&63] = vr[rd]
			case vmDecJnz:
				vr[rd]--
				if vr[rd] != 0 {
					pc -= int(rs2)
				}
			case vmLi:
				vr[rd] = rs2
			case vmHalt:
			}
			if op == vmHalt {
				break
			}
		}
	}
	return vr[0] ^ vr[1] ^ vr[2] ^ vr[3] ^ vr[4] ^ vr[5] ^ vr[6] ^ vr[7]
}

func wordsDirective(vals []uint32) string {
	var b strings.Builder
	for i, v := range vals {
		if i%8 == 0 {
			b.WriteString("\t.word ")
		} else {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%#x", v)
		if i%8 == 7 || i == len(vals)-1 {
			b.WriteString("\n")
		}
	}
	return b.String()
}

func m88kSource() string {
	prog := m88kProgram()
	return fmt.Sprintf(`
	.data 0x40000
vregs:	.space 32            ! 8 guest registers
vmem:	.space 256           ! 64 guest memory words
jt:	.word h_add, h_sub, h_xor, h_and, h_shl, h_addi, h_load, h_store, h_decjnz, h_halt, h_li
prog:
%s
	.text 0x1000
start:
	set vregs, %%g5
	set vmem, %%g6
	set prog, %%g7
	set jt, %%g4
	mov %d, %%l7         ! repetitions
rep:
	mov 0, %%l0          ! guest pc (word index)
fetch:
	sll %%l0, 2, %%o5
	ld [%%g7+%%o5], %%l1 ! packed instruction
	add %%l0, 1, %%l0
	and %%l1, 0xFF, %%o0 ! op
	srl %%l1, 8, %%o1
	and %%o1, 7, %%o1    ! rd
	srl %%l1, 16, %%o2
	and %%o2, 7, %%o2    ! rs1
	srl %%l1, 24, %%o3   ! rs2 / imm
	sll %%o0, 2, %%o4
	ld [%%g4+%%o4], %%o4
	jmpl %%o4, %%g0      ! jump-table dispatch

h_add:
	sll %%o2, 2, %%o2
	ld [%%g5+%%o2], %%l2
	and %%o3, 7, %%o3
	sll %%o3, 2, %%o3
	ld [%%g5+%%o3], %%l3
	add %%l2, %%l3, %%l2
	sll %%o1, 2, %%o1
	st %%l2, [%%g5+%%o1]
	b fetch
h_sub:
	sll %%o2, 2, %%o2
	ld [%%g5+%%o2], %%l2
	and %%o3, 7, %%o3
	sll %%o3, 2, %%o3
	ld [%%g5+%%o3], %%l3
	sub %%l2, %%l3, %%l2
	sll %%o1, 2, %%o1
	st %%l2, [%%g5+%%o1]
	b fetch
h_xor:
	sll %%o2, 2, %%o2
	ld [%%g5+%%o2], %%l2
	and %%o3, 7, %%o3
	sll %%o3, 2, %%o3
	ld [%%g5+%%o3], %%l3
	xor %%l2, %%l3, %%l2
	sll %%o1, 2, %%o1
	st %%l2, [%%g5+%%o1]
	b fetch
h_and:
	sll %%o2, 2, %%o2
	ld [%%g5+%%o2], %%l2
	and %%o3, 7, %%o3
	sll %%o3, 2, %%o3
	ld [%%g5+%%o3], %%l3
	and %%l2, %%l3, %%l2
	sll %%o1, 2, %%o1
	st %%l2, [%%g5+%%o1]
	b fetch
h_shl:
	sll %%o2, 2, %%o2
	ld [%%g5+%%o2], %%l2
	and %%o3, 7, %%o3
	sll %%l2, %%o3, %%l2
	sll %%o1, 2, %%o1
	st %%l2, [%%g5+%%o1]
	b fetch
h_addi:
	sll %%o2, 2, %%o2
	ld [%%g5+%%o2], %%l2
	add %%l2, %%o3, %%l2
	sll %%o1, 2, %%o1
	st %%l2, [%%g5+%%o1]
	b fetch
h_load:
	sll %%o2, 2, %%o2
	ld [%%g5+%%o2], %%l2
	and %%l2, 63, %%l2
	sll %%l2, 2, %%l2
	ld [%%g6+%%l2], %%l3
	sll %%o1, 2, %%o1
	st %%l3, [%%g5+%%o1]
	b fetch
h_store:
	sll %%o2, 2, %%o2
	ld [%%g5+%%o2], %%l2
	and %%l2, 63, %%l2
	sll %%l2, 2, %%l2
	sll %%o1, 2, %%o1
	ld [%%g5+%%o1], %%l3
	st %%l3, [%%g6+%%l2]
	b fetch
h_decjnz:
	sll %%o1, 2, %%o1
	ld [%%g5+%%o1], %%l2
	subcc %%l2, 1, %%l2
	st %%l2, [%%g5+%%o1]
	be fetch
	sub %%l0, %%o3, %%l0
	b fetch
h_li:
	sll %%o1, 2, %%o1
	st %%o3, [%%g5+%%o1]
	b fetch
h_halt:
	subcc %%l7, 1, %%l7
	bg rep

	ld [%%g5], %%o0      ! fold guest registers
	ld [%%g5+4], %%o1
	xor %%o0, %%o1, %%o0
	ld [%%g5+8], %%o1
	xor %%o0, %%o1, %%o0
	ld [%%g5+12], %%o1
	xor %%o0, %%o1, %%o0
	ld [%%g5+16], %%o1
	xor %%o0, %%o1, %%o0
	ld [%%g5+20], %%o1
	xor %%o0, %%o1, %%o0
	ld [%%g5+24], %%o1
	xor %%o0, %%o1, %%o0
	ld [%%g5+28], %%o1
	xor %%o0, %%o1, %%o0
	ta 0
`, wordsDirective(prog), m88kReps)
}

var m88ksim = &Workload{
	Name:        "m88ksim",
	Description: "bytecode VM with jump-table dispatch (CPU simulator loop)",
	Input:       "dhry.big",
	Source:      m88kSource(),
	Validate:    expectExit("m88ksim", m88kModel()),
}

package workloads

import (
	"fmt"
	"strings"
)

// vortex: an object-database traversal — pointer chasing through a
// shuffled linked chain of records with field updates and structural
// unlinking, the low-ILP memory-bound behaviour of SPEC vortex.

const (
	vortexSeed   = 0x0BADF00D
	vortexNodes  = 2048
	vortexRounds = 64
	vortexBase   = 0x40000 // record area base address
)

// vortexRecord is the in-memory layout: key, val, next (absolute
// address, 0 = end), spare.
type vortexRecord struct {
	key, val, next uint32
}

// vortexBuild constructs the initial records with a deterministically
// shuffled chain; record i lives at vortexBase + i*16.
func vortexBuild() ([]vortexRecord, uint32) {
	x := uint32(vortexSeed)
	perm := make([]int, vortexNodes)
	for i := range perm {
		perm[i] = i
	}
	for i := vortexNodes - 1; i > 0; i-- {
		x = xorshift32(x)
		j := int(x % uint32(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	recs := make([]vortexRecord, vortexNodes)
	for i := range recs {
		x = xorshift32(x)
		recs[i].key = x
		recs[i].val = uint32(i)*3 + 1
	}
	for i := 0; i < vortexNodes-1; i++ {
		recs[perm[i]].next = vortexBase + uint32(perm[i+1])*16
	}
	recs[perm[vortexNodes-1]].next = 0
	head := vortexBase + uint32(perm[0])*16
	return recs, head
}

// vortexModel mirrors the assembly traversal over the same initial image.
func vortexModel() uint32 {
	recs, head := vortexBuild()
	at := func(addr uint32) *vortexRecord { return &recs[(addr-vortexBase)/16] }
	var sum uint32
	for round := 0; round < vortexRounds; round++ {
		p := head
		step := uint32(0)
		for p != 0 {
			r := at(p)
			sum += r.val
			if r.key&7 == 0 {
				r.val += r.key
			}
			step++
			if step&15 == 5 {
				if r.next != 0 {
					r.next = at(r.next).next // unlink successor
				}
			}
			p = r.next
		}
	}
	return sum
}

func vortexSource() string {
	recs, head := vortexBuild()
	var data strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&data, "\t.word %#x, %#x, %#x, 0\n", r.key, r.val, r.next)
	}
	return fmt.Sprintf(`
	.data %#x
recs:
%s
	.text 0x1000
start:
	set %#x, %%g5        ! head pointer
	mov %d, %%l7         ! rounds
	mov 0, %%l0          ! sum
round:
	mov %%g5, %%l1       ! p
	mov 0, %%l2          ! step
walk:
	tst %%l1
	be endround
	ld [%%l1], %%o0      ! key
	ld [%%l1+4], %%o1    ! val
	add %%l0, %%o1, %%l0
	andcc %%o0, 7, %%g0
	bne nokey
	add %%o1, %%o0, %%o1
	st %%o1, [%%l1+4]
nokey:
	add %%l2, 1, %%l2
	and %%l2, 15, %%o2
	cmp %%o2, 5
	bne nounlink
	ld [%%l1+8], %%o3    ! q = p.next
	tst %%o3
	be nounlink
	ld [%%o3+8], %%o4    ! q.next
	st %%o4, [%%l1+8]    ! p.next = q.next
nounlink:
	ld [%%l1+8], %%l1    ! p = p.next
	b walk
endround:
	subcc %%l7, 1, %%l7
	bg round
	mov %%l0, %%o0
	ta 0
`, vortexBase, data.String(), head, vortexRounds)
}

var vortex = &Workload{
	Name:        "vortex",
	Description: "pointer-chasing record chain with field updates and unlinking",
	Input:       "vortex.in",
	Source:      vortexSource(),
	Validate:    expectExit("vortex", vortexModel()),
}

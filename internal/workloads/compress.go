package workloads

import "fmt"

// compress: LZW-style hash-table match loop — per input byte, a rolling
// hash probes a 512-entry code table, counting matches and installing new
// codes, exactly the inner-loop character of SPEC compress (small working
// set, data-dependent but short branches).

const (
	compressN    = 50000
	compressSeed = 0x9E3779B9
)

// compressModel mirrors the assembly loop. The input is mostly a
// repeating byte pattern with occasional pseudo-random noise, like real
// compressible text: the match branch converges to strongly biased, as it
// does on SPEC compress's input.
func compressModel() uint32 {
	var table [512]uint32
	x := uint32(compressSeed)
	var prev, matches uint32
	for i := 0; i < compressN; i++ {
		var b uint32
		if i&7 != 0 {
			b = (prev + 17) & 0xFF
		} else {
			x = xorshift32(x)
			b = x & 0xFF
		}
		h := ((prev << 4) ^ b) & 0x1FF
		v := prev<<8 | b | 1<<24 // bit 24 marks occupancy (zero value is empty)
		if table[h] == v {
			matches++
		} else {
			table[h] = v
		}
		prev = b
	}
	return matches
}

var compressSource = fmt.Sprintf(`
	.data 0x40000
table:	.space 2048          ! 512 words
	.text 0x1000
start:
	set table, %%g5
	set %#x, %%g1        ! xorshift state
	mov 0, %%l0          ! prev byte
	mov 0, %%l1          ! matches
	set %d, %%l2         ! remaining bytes
	mov 0, %%l3          ! position counter
loop:
	andcc %%l3, 7, %%g0  ! mostly-repetitive input, noise every 8th byte
	be noise
	add %%l0, 17, %%o0
	and %%o0, 0xFF, %%o0
	b haveb
noise:
	sll %%g1, 13, %%g3   ! xorshift32
	xor %%g1, %%g3, %%g1
	srl %%g1, 17, %%g3
	xor %%g1, %%g3, %%g1
	sll %%g1, 5, %%g3
	xor %%g1, %%g3, %%g1
	and %%g1, 0xFF, %%o0   ! b
haveb:
	add %%l3, 1, %%l3
	sll %%l0, 4, %%o1
	xor %%o1, %%o0, %%o1
	and %%o1, 0x1FF, %%o1  ! h
	sll %%o1, 2, %%o1      ! word offset
	sll %%l0, 8, %%o2
	or %%o2, %%o0, %%o2
	sethi %%hi(0x1000000), %%o3
	or %%o2, %%o3, %%o2    ! v with occupancy bit
	ld [%%g5+%%o1], %%o4
	cmp %%o4, %%o2
	bne miss
	add %%l1, 1, %%l1      ! match
	b next
miss:
	st %%o2, [%%g5+%%o1]
next:
	mov %%o0, %%l0
	subcc %%l2, 1, %%l2
	bg loop
	mov %%l1, %%o0
	ta 0
`, compressSeed, compressN)

var compress = &Workload{
	Name:        "compress",
	Description: "LZW-style rolling-hash code-table match loop",
	Input:       "400000 e 2231",
	Source:      compressSource,
	Validate:    expectExit("compress", compressModel()),
}

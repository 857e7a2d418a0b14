package workloads

import (
	"fmt"
	"math/bits"
	"strings"
)

// perl: string hashing and associative lookup — scan a text of words,
// hash each word, probe a hash table, and byte-compare on hits, the
// dominant behaviour of perl's symbol and string handling.

const (
	perlSeed   = 0x51ED270F
	perlWords  = 300
	perlPasses = 15
)

// perlText deterministically builds the input: words over a small
// alphabet (many repeats), space separated, NUL terminated.
func perlText() string {
	x := uint32(perlSeed)
	var b strings.Builder
	for w := 0; w < perlWords; w++ {
		x = xorshift32(x)
		n := 2 + x%6
		for i := uint32(0); i < n; i++ {
			x = xorshift32(x)
			b.WriteByte(byte('a' + x%13))
		}
		b.WriteByte(' ')
	}
	return b.String()
}

// perlModel mirrors the assembly scanner exactly. The hash table maps a
// slot to the text offset of the first word stored there; collisions are
// counted, not chained.
func perlModel() uint32 {
	text := perlText()
	var table [256]int32 // offset+1 of stored word, 0 = empty
	var uniq, dup, coll uint32
	isEnd := func(i int) bool { return i >= len(text) || text[i] == ' ' || text[i] == 0 }
	for p := 0; p < perlPasses; p++ {
		i := 0
		for i < len(text) {
			if text[i] == ' ' {
				i++
				continue
			}
			if text[i] == 0 {
				break
			}
			start := i
			var h uint32
			for !isEnd(i) {
				h = (h << 5) - h + uint32(text[i])
				i++
			}
			slot := h & 255
			if table[slot] == 0 {
				table[slot] = int32(start) + 1
				uniq++
				continue
			}
			a := int(table[slot] - 1)
			b := start
			for !isEnd(a) && !isEnd(b) && text[a] == text[b] {
				a++
				b++
			}
			if isEnd(a) && isEnd(b) {
				dup++
			} else {
				coll++
			}
		}
	}
	acc := uniq
	acc = bits.RotateLeft32(acc, 1) ^ dup
	acc = bits.RotateLeft32(acc, 1) ^ coll
	return acc
}

func perlSource() string {
	text := perlText()
	var data strings.Builder
	for i := 0; i < len(text); i += 64 {
		end := i + 64
		if end > len(text) {
			end = len(text)
		}
		fmt.Fprintf(&data, "\t.ascii %q\n", text[i:end])
	}
	data.WriteString("\t.byte 0\n")
	return fmt.Sprintf(`
	.data 0x40000
table:	.space 1024          ! 256 word slots: text offset+1, 0 = empty
text:
%s
	.text 0x1000
start:
	set table, %%g5
	set text, %%g6
	mov %d, %%l7         ! passes
	mov 0, %%l0          ! uniq
	mov 0, %%l1          ! dup
	mov 0, %%l2          ! coll
pass:
	mov 0, %%l3          ! offset i
scan:
	ldub [%%g6+%%l3], %%o0
	cmp %%o0, 32
	bne notspace
	add %%l3, 1, %%l3
	b scan
notspace:
	tst %%o0
	be endpass
	mov %%l3, %%l4       ! word start
	mov 0, %%l5          ! hash
hash:
	sll %%l5, 5, %%o1    ! h = h*31 + c
	sub %%o1, %%l5, %%l5
	add %%l5, %%o0, %%l5
	add %%l3, 1, %%l3
	ldub [%%g6+%%l3], %%o0
	tst %%o0
	be hashdone
	cmp %%o0, 32
	bne hash
hashdone:
	and %%l5, 255, %%o1  ! slot
	sll %%o1, 2, %%o1
	ld [%%g5+%%o1], %%o2
	tst %%o2
	bne probe
	add %%l4, 1, %%o3    ! store offset+1
	st %%o3, [%%g5+%%o1]
	add %%l0, 1, %%l0    ! uniq
	b scan
probe:
	sub %%o2, 1, %%o2    ! stored offset (a)
	mov %%l4, %%o3       ! current offset (b)
cmploop:
	ldub [%%g6+%%o2], %%o4
	ldub [%%g6+%%o3], %%o5
	! terminator test for a
	tst %%o4
	be aend
	cmp %%o4, 32
	be aend
	! a not ended; b ended?
	tst %%o5
	be differ
	cmp %%o5, 32
	be differ
	cmp %%o4, %%o5
	bne differ
	add %%o2, 1, %%o2
	add %%o3, 1, %%o3
	b cmploop
aend:
	! a ended; equal iff b ended too
	tst %%o5
	be same
	cmp %%o5, 32
	be same
differ:
	add %%l2, 1, %%l2    ! collision
	b scan
same:
	add %%l1, 1, %%l1    ! duplicate
	b scan
endpass:
	subcc %%l7, 1, %%l7
	bg pass

	mov %%l0, %%o0       ! fold: rotl-xor
	sll %%o0, 1, %%o1
	srl %%o0, 31, %%o2
	or %%o1, %%o2, %%o0
	xor %%o0, %%l1, %%o0
	sll %%o0, 1, %%o1
	srl %%o0, 31, %%o2
	or %%o1, %%o2, %%o0
	xor %%o0, %%l2, %%o0
	ta 0
`, data.String(), perlPasses)
}

var perl = &Workload{
	Name:        "perl",
	Description: "word hashing with associative probe and byte-compare",
	Input:       "primes.pl",
	Source:      perlSource(),
	Validate:    expectExit("perl", perlModel()),
}

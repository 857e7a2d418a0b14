package workloads

import (
	"fmt"
	"math/bits"
	"strings"
)

// gcc: a branchy token classifier — per input character, a cascade of
// range compares with nested conditions and per-class actions, echoing the
// scanner/dispatch style and poor branch predictability of the SPEC gcc
// front end (many short basic blocks, little loop reuse per block).

const (
	gccN        = 20000
	gccSeed     = 0x1234ABCD
	gccHandlers = 512 // generated dispatch targets: large code footprint
)

// gccHandlerConsts deterministically derives each generated handler's
// three constants.
func gccHandlerConsts(k int) (c1, c2, c3 uint32) {
	x := uint32(gccSeed) ^ uint32(k)*0x9E3779B9
	x = xorshift32(x)
	c1 = x & 0xFFF
	x = xorshift32(x)
	c2 = x & 0xFFF
	x = xorshift32(x)
	c3 = x & 0xFFF
	return
}

// gccModel mirrors the assembly classifier exactly, including the
// generated per-token handler dispatched through the jump table.
func gccModel() uint32 {
	x := uint32(gccSeed)
	var c0, c1, c3, c5, c7, extra uint32
	var val, h uint32
	fold := func(acc, v uint32) uint32 { return bits.RotateLeft32(acc, 1) ^ v }
	for i := 0; i < gccN; i++ {
		x = xorshift32(x)
		c := x & 0x7F
		if x&3 != 0 {
			// Skew toward identifier characters, as in real source text:
			// three quarters of the stream is lower-case letters.
			c = 'a' + (x>>8)&15
		}
		switch {
		case c < 32:
			c0++
			if c&1 != 0 {
				extra += c
			}
		case c < 48:
			c1++
			val ^= c
		case c < 58:
			// digit: val = val*10 + (c-48) via shift-add
			val = (val << 3) + (val << 1) + (c - 48)
		case c < 65:
			c3++
			if c == 58 {
				extra ^= val
			}
		case c < 91:
			// upper-case identifier hash h = h*31 + c
			h = (h << 5) - h + c
		case c < 97:
			c5++
		case c < 123:
			h = (h << 5) - h + c
			if h&7 == 0 {
				extra++
			}
		default:
			c7++
		}
		// Dispatch a generated handler on the running hash, like a
		// compiler acting on each token: a large, data-dependently
		// selected code footprint.
		k1, k2, k3 := gccHandlerConsts(int(h & (gccHandlers - 1)))
		extra = bits.RotateLeft32(extra, 1) ^ k1
		val += k2
		h ^= k3
	}
	acc := c0
	acc = fold(acc, c1)
	acc = fold(acc, c3)
	acc = fold(acc, c5)
	acc = fold(acc, c7)
	acc = fold(acc, extra)
	acc = fold(acc, val)
	acc = fold(acc, h)
	return acc
}

// gccHandlerText generates the jump table and handler bodies.
func gccHandlerText() string {
	var b strings.Builder
	b.WriteString("\t.data 0x60000\njt:\n")
	for k := 0; k < gccHandlers; k++ {
		fmt.Fprintf(&b, "\t.word gh_%d\n", k)
	}
	b.WriteString("\t.text\n")
	for k := 0; k < gccHandlers; k++ {
		c1, c2, c3 := gccHandlerConsts(k)
		fmt.Fprintf(&b, "gh_%d:\n", k)
		fmt.Fprintf(&b, "\tsll %%l5, 1, %%o2\n\tsrl %%l5, 31, %%o3\n\tor %%o2, %%o3, %%l5\n")
		fmt.Fprintf(&b, "\txor %%l5, %d, %%l5\n", c1)
		fmt.Fprintf(&b, "\tadd %%l6, %d, %%l6\n", c2)
		fmt.Fprintf(&b, "\txor %%l7, %d, %%l7\n", c3)
		fmt.Fprintf(&b, "\tb hback\n")
	}
	return b.String()
}

var gccSource = fmt.Sprintf(`
	.text 0x1000
start:
	set %#x, %%g1        ! xorshift state
	set jt, %%g4         ! handler jump table
	set %d, %%g2         ! iterations
	mov 0, %%l0          ! c0
	mov 0, %%l1          ! c1
	mov 0, %%l2          ! c3
	mov 0, %%l3          ! c5
	mov 0, %%l4          ! c7
	mov 0, %%l5          ! extra
	mov 0, %%l6          ! val
	mov 0, %%l7          ! h
loop:
	sll %%g1, 13, %%g3
	xor %%g1, %%g3, %%g1
	srl %%g1, 17, %%g3
	xor %%g1, %%g3, %%g1
	sll %%g1, 5, %%g3
	xor %%g1, %%g3, %%g1
	and %%g1, 0x7F, %%o0 ! c
	andcc %%g1, 3, %%g0  ! skew: 3/4 of characters are lower-case letters
	be classify
	srl %%g1, 8, %%o0    ! c = 'a' + ((x>>8) & 15)
	and %%o0, 15, %%o0
	add %%o0, 97, %%o0
classify:
	cmp %%o0, 32
	bge not_ctl
	add %%l0, 1, %%l0
	andcc %%o0, 1, %%g0
	be next
	add %%l5, %%o0, %%l5
	b next
not_ctl:
	cmp %%o0, 48
	bge not_punct1
	add %%l1, 1, %%l1
	xor %%l6, %%o0, %%l6
	b next
not_punct1:
	cmp %%o0, 58
	bge not_digit
	sll %%l6, 3, %%o1    ! val*10 + (c-48)
	sll %%l6, 1, %%o2
	add %%o1, %%o2, %%l6
	add %%l6, %%o0, %%l6
	sub %%l6, 48, %%l6
	b next
not_digit:
	cmp %%o0, 65
	bge not_punct2
	add %%l2, 1, %%l2
	cmp %%o0, 58
	bne next
	xor %%l5, %%l6, %%l5
	b next
not_punct2:
	cmp %%o0, 91
	bge not_upper
	sll %%l7, 5, %%o1    ! h = h*31 + c
	sub %%o1, %%l7, %%l7
	add %%l7, %%o0, %%l7
	b next
not_upper:
	cmp %%o0, 97
	bge not_mid
	add %%l3, 1, %%l3
	b next
not_mid:
	cmp %%o0, 123
	bge other
	sll %%l7, 5, %%o1
	sub %%o1, %%l7, %%l7
	add %%l7, %%o0, %%l7
	andcc %%l7, 7, %%g0
	bne next
	add %%l5, 1, %%l5
	b next
other:
	add %%l4, 1, %%l4
next:
	! generated handler dispatch on the running hash
	and %%l7, %d, %%o1
	sll %%o1, 2, %%o1
	ld [%%g4+%%o1], %%o1
	jmpl %%o1, %%g0
hback:
	subcc %%g2, 1, %%g2
	bg loop

	! fold counters: acc = rotl(acc,1) ^ v
	mov %%l0, %%o0
	sll %%o0, 1, %%o1
	srl %%o0, 31, %%o2
	or %%o1, %%o2, %%o0
	xor %%o0, %%l1, %%o0
	sll %%o0, 1, %%o1
	srl %%o0, 31, %%o2
	or %%o1, %%o2, %%o0
	xor %%o0, %%l2, %%o0
	sll %%o0, 1, %%o1
	srl %%o0, 31, %%o2
	or %%o1, %%o2, %%o0
	xor %%o0, %%l3, %%o0
	sll %%o0, 1, %%o1
	srl %%o0, 31, %%o2
	or %%o1, %%o2, %%o0
	xor %%o0, %%l4, %%o0
	sll %%o0, 1, %%o1
	srl %%o0, 31, %%o2
	or %%o1, %%o2, %%o0
	xor %%o0, %%l5, %%o0
	sll %%o0, 1, %%o1
	srl %%o0, 31, %%o2
	or %%o1, %%o2, %%o0
	xor %%o0, %%l6, %%o0
	sll %%o0, 1, %%o1
	srl %%o0, 31, %%o2
	or %%o1, %%o2, %%o0
	xor %%o0, %%l7, %%o0
	ta 0
`, gccSeed, gccN, gccHandlers-1) + gccHandlerText()

var gcc = &Workload{
	Name:        "gcc",
	Description: "branchy character classifier with nested range dispatch",
	Input:       "-O3 jump.i",
	Source:      gccSource,
	Validate:    expectExit("gcc", gccModel()),
}

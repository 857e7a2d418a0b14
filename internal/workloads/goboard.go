package workloads

import "fmt"

// go: a Go-board liberty scan — per stone, neighbour checks with
// irregular data-dependent branches, captures mutating the board between
// passes. Mimics SPEC go's large irregular branch footprint over a 2-D
// array working set.

const (
	goSize   = 32 // board is goSize x goSize bytes
	goPasses = 40
	goSeed   = 0xBEEFCAFE
)

// stoneOf maps a 3-bit draw to a stone: mostly black, some white, some
// empty — a biased position like a real middle-game board, keeping
// neighbour-check branches predictable.
func stoneOf(v uint32) uint32 {
	switch {
	case v < 5:
		return 1
	case v < 6:
		return 2
	default:
		return 0
	}
}

// goModel mirrors the assembly scan exactly.
func goModel() uint32 {
	board := make([]uint32, goSize*goSize)
	x := uint32(goSeed)
	for i := range board {
		x = xorshift32(x)
		board[i] = stoneOf(x & 7)
	}
	var caps, infl uint32
	for p := 0; p < goPasses; p++ {
		for r := 1; r < goSize-1; r++ {
			for c := 1; c < goSize-1; c++ {
				idx := r*goSize + c
				s := board[idx]
				if s == 0 {
					continue
				}
				var libs uint32
				if board[idx-1] == 0 {
					libs++
				}
				if board[idx+1] == 0 {
					libs++
				}
				if board[idx-goSize] == 0 {
					libs++
				}
				if board[idx+goSize] == 0 {
					libs++
				}
				if libs == 0 {
					caps++
					board[idx] = 0
				} else if s == 1 {
					infl += libs
				} else {
					infl -= libs
				}
			}
		}
		// Mutate 16 random cells between passes.
		for m := 0; m < 16; m++ {
			x = xorshift32(x)
			board[x&(goSize*goSize-1)] = stoneOf((x >> 10) & 7)
		}
	}
	return caps<<16 ^ infl&0xFFFF
}

var goSource = fmt.Sprintf(`
	.data 0x40000
board:	.space %d            ! one byte per cell
	.text 0x1000
start:
	set board, %%g5
	set %#x, %%g1        ! xorshift state
	mov 0, %%g2
fill:
	sll %%g1, 13, %%g3
	xor %%g1, %%g3, %%g1
	srl %%g1, 17, %%g3
	xor %%g1, %%g3, %%g1
	sll %%g1, 5, %%g3
	xor %%g1, %%g3, %%g1
	and %%g1, 7, %%o0
	call stoneof
	nop
	stb %%o0, [%%g5+%%g2]
	add %%g2, 1, %%g2
	cmp %%g2, %d
	bl fill

	mov %d, %%g4         ! pass counter
	mov 0, %%l0          ! caps
	mov 0, %%l1          ! infl
pass:
	mov 1, %%l2          ! row
rowloop:
	mov 1, %%l3          ! col
colloop:
	sll %%l2, 5, %%l4    ! idx = r*32 + c
	add %%l4, %%l3, %%l4
	ldub [%%g5+%%l4], %%o0
	tst %%o0
	be nextcell
	mov 0, %%o1          ! libs
	sub %%l4, 1, %%o2
	ldub [%%g5+%%o2], %%o3
	tst %%o3
	bne w1
	add %%o1, 1, %%o1
w1:
	add %%l4, 1, %%o2
	ldub [%%g5+%%o2], %%o3
	tst %%o3
	bne w2
	add %%o1, 1, %%o1
w2:
	sub %%l4, 32, %%o2
	ldub [%%g5+%%o2], %%o3
	tst %%o3
	bne w3
	add %%o1, 1, %%o1
w3:
	add %%l4, 32, %%o2
	ldub [%%g5+%%o2], %%o3
	tst %%o3
	bne w4
	add %%o1, 1, %%o1
w4:
	tst %%o1
	bne alive
	add %%l0, 1, %%l0    ! captured
	stb %%g0, [%%g5+%%l4]
	b nextcell
alive:
	cmp %%o0, 1
	bne white
	add %%l1, %%o1, %%l1
	b nextcell
white:
	sub %%l1, %%o1, %%l1
nextcell:
	add %%l3, 1, %%l3
	cmp %%l3, 31
	bl colloop
	add %%l2, 1, %%l2
	cmp %%l2, 31
	bl rowloop

	! mutate 16 random cells
	mov 16, %%l5
mut:
	sll %%g1, 13, %%g3
	xor %%g1, %%g3, %%g1
	srl %%g1, 17, %%g3
	xor %%g1, %%g3, %%g1
	sll %%g1, 5, %%g3
	xor %%g1, %%g3, %%g1
	srl %%g1, 10, %%o0
	and %%o0, 7, %%o0
	call stoneof
	nop
	set %d, %%o2
	and %%g1, %%o2, %%o1
	stb %%o0, [%%g5+%%o1]
	subcc %%l5, 1, %%l5
	bg mut
	subcc %%g4, 1, %%g4
	bg pass

	sll %%l0, 16, %%o0
	set 0xFFFF, %%o1
	and %%l1, %%o1, %%o1
	xor %%o0, %%o1, %%o0
	ta 0

! stoneof: map 3-bit draw in %%o0 to stone value (5/8 black, 1/8 white,
! 2/8 empty). Leaf routine, no window.
stoneof:
	cmp %%o0, 5
	bge sw
	mov 1, %%o0
	retl
sw:
	cmp %%o0, 6
	bge se
	mov 2, %%o0
	retl
se:
	mov 0, %%o0
	retl
`, goSize*goSize, goSeed, goSize*goSize, goPasses, goSize*goSize-1)

var goboard = &Workload{
	Name:        "go",
	Description: "board liberty scan with captures and irregular branches",
	Input:       "40 19 null.in",
	Source:      goSource,
	Validate:    expectExit("go", goModel()),
}

package workloads

import "fmt"

// xlisp: recursive N-queens, the paper's own xlisp input ("queens 7").
// Deep save/restore recursion over register windows, short branchy basic
// blocks and byte-array marking — the trace behaviour of a recursive lisp
// interpreter.

const queensN = 7
const queensReps = 10

// queensSolutions is the Go reference model.
func queensSolutions(n int) uint32 {
	cols := make([]bool, n)
	d1 := make([]bool, 2*n-1)
	d2 := make([]bool, 2*n-1)
	var count uint32
	var solve func(row int)
	solve = func(row int) {
		if row == n {
			count++
			return
		}
		for c := 0; c < n; c++ {
			if cols[c] || d1[row+c] || d2[row-c+n-1] {
				continue
			}
			cols[c], d1[row+c], d2[row-c+n-1] = true, true, true
			solve(row + 1)
			cols[c], d1[row+c], d2[row-c+n-1] = false, false, false
		}
	}
	solve(0)
	return count
}

var xlispSource = fmt.Sprintf(`
	.data 0x40000
cols:	.space 16
diag1:	.space 32
diag2:	.space 32
	.text 0x1000
start:
	mov 0, %%g2           ! solution count
	mov %d, %%g3          ! repetitions
	set cols, %%g5
	set diag1, %%g6
	set diag2, %%g7
rep:
	mov 0, %%o0
	call solve
	nop
	subcc %%g3, 1, %%g3
	bg rep
	mov %%g2, %%o0
	ta 0

! solve(row in %%o0): recursive queen placement.
solve:
	! progcheck:allow window-depth recursion is bounded by the board size (N+1 frames), within the >=16-window configs the suite runs
	save %%sp, -96, %%sp
	cmp %%i0, %d
	bne body
	add %%g2, 1, %%g2     ! full placement: count it
	b out
body:
	mov 0, %%l0           ! column
colloop:
	ldub [%%g5+%%l0], %%l2
	tst %%l2
	bne next
	add %%i0, %%l0, %%l3  ! row+col diagonal
	ldub [%%g6+%%l3], %%l2
	tst %%l2
	bne next
	sub %%i0, %%l0, %%l4
	add %%l4, %d, %%l4    ! row-col+N-1 diagonal
	ldub [%%g7+%%l4], %%l2
	tst %%l2
	bne next
	mov 1, %%l2
	stb %%l2, [%%g5+%%l0]
	stb %%l2, [%%g6+%%l3]
	stb %%l2, [%%g7+%%l4]
	add %%i0, 1, %%o0
	call solve
	nop
	stb %%g0, [%%g5+%%l0]
	stb %%g0, [%%g6+%%l3]
	stb %%g0, [%%g7+%%l4]
next:
	add %%l0, 1, %%l0
	cmp %%l0, %d
	bl colloop
out:
	restore
	retl
`, queensReps, queensN, queensN-1, queensN)

var xlisp = &Workload{
	Name:        "xlisp",
	Description: "recursive N-queens over register windows (lisp-style recursion)",
	Input:       "queens 7",
	Source:      xlispSource,
	Validate:    expectExit("xlisp", queensSolutions(queensN)*queensReps),
}

package vliw

// Test hooks for the external tests (package vliw_test), which import
// the machine and so cannot live in package vliw.

// StagedOps returns each lowered op's staging flag, in the order the
// engine executes them: long instruction by long instruction, each in
// slot order.
func StagedOps(lb *LoweredBlock) []bool {
	out := make([]bool, len(lb.ops))
	for i := range lb.ops {
		out[i] = lb.ops[i].stage
	}
	return out
}

// WriteSet returns the block's write set as physical integer and FP
// register numbers.
func WriteSet(lb *LoweredBlock) (iregs []uint16, fregs []uint8) {
	for r := range iregWords * 64 {
		if lb.iregs[r/64]&(1<<(r%64)) != 0 {
			iregs = append(iregs, uint16(r))
		}
	}
	for r := range 32 {
		if lb.fregs&(1<<r) != 0 {
			fregs = append(fregs, uint8(r))
		}
	}
	return iregs, fregs
}

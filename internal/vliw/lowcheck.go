package vliw

import (
	"fmt"
	"slices"

	"dtsvliw/internal/sched"
)

// LowerMismatchError reports a disagreement between a block's saved
// lowered form and a fresh lowering of its slot grid. Line and Slot
// locate the first mismatching long instruction and operation index
// (-1 when the mismatch is not line-specific).
type LowerMismatchError struct {
	Line   int
	Slot   int
	Detail string
}

func (e *LowerMismatchError) Error() string {
	if e.Line < 0 {
		return fmt.Sprintf("vliw: lowered form mismatch: %s", e.Detail)
	}
	return fmt.Sprintf("vliw: lowered form mismatch at li=%d op=%d: %s", e.Line, e.Slot, e.Detail)
}

// CheckLowered verifies that low is exactly the lowering of b: the block
// is re-lowered and the two micro-op forms, their write sets and their
// staging flags included, are compared structurally.
// Because lowering is deterministic, any divergence means the cached
// executable form no longer decodes to the same semantic operations as
// the slot grid (the blockcheck verifier's lowered-agreement condition).
func CheckLowered(b *sched.Block, low *LoweredBlock, nwin int) error {
	if low.b != b {
		return &LowerMismatchError{Line: -1, Slot: -1,
			Detail: "lowered form does not reference this block"}
	}
	want := Lower(b, nwin)
	if want == nil {
		return &LowerMismatchError{Line: -1, Slot: -1,
			Detail: "block is not representable in lowered form, yet a lowering is cached"}
	}
	if low.renTotal != want.renTotal {
		return &LowerMismatchError{Line: -1, Slot: -1,
			Detail: fmt.Sprintf("renaming-register total %d, re-lowering yields %d",
				low.renTotal, want.renTotal)}
	}
	if low.iregs != want.iregs || low.fregs != want.fregs {
		return &LowerMismatchError{Line: -1, Slot: -1,
			Detail: fmt.Sprintf("write set %x fp %x, re-lowering yields %x fp %x",
				low.iregs, low.fregs, want.iregs, want.fregs)}
	}
	if len(low.lines) != len(want.lines) {
		return &LowerMismatchError{Line: -1, Slot: -1,
			Detail: fmt.Sprintf("%d lowered lines, re-lowering yields %d",
				len(low.lines), len(want.lines))}
	}
	for li := range want.lines {
		gl, wl := low.lines[li], want.lines[li]
		gbrs, wbrs := low.brs[gl.br0:gl.br1], want.brs[wl.br0:wl.br1]
		if len(gbrs) != len(wbrs) {
			return &LowerMismatchError{Line: li, Slot: -1,
				Detail: fmt.Sprintf("%d lowered branches, re-lowering yields %d",
					len(gbrs), len(wbrs))}
		}
		for i := range wbrs {
			if gbrs[i] != wbrs[i] {
				return &LowerMismatchError{Line: li, Slot: i,
					Detail: fmt.Sprintf("branch %+v, re-lowering yields %+v", gbrs[i], wbrs[i])}
			}
		}
		gops, wops := low.ops[gl.op0:gl.op1], want.ops[wl.op0:wl.op1]
		if len(gops) != len(wops) {
			return &LowerMismatchError{Line: li, Slot: -1,
				Detail: fmt.Sprintf("%d lowered ops, re-lowering yields %d",
					len(gops), len(wops))}
		}
		for i := range wops {
			if gops[i] != wops[i] {
				return &LowerMismatchError{Line: li, Slot: i,
					Detail: fmt.Sprintf("op %+v, re-lowering yields %+v", gops[i], wops[i])}
			}
		}
	}
	// Equal ops carry equal ranges, so equal flat lists make every op's
	// rename targets and copies equal too.
	if !slices.Equal(low.rens, want.rens) {
		return &LowerMismatchError{Line: -1, Slot: -1,
			Detail: fmt.Sprintf("rename targets %v, re-lowering yields %v", low.rens, want.rens)}
	}
	if !slices.Equal(low.copies, want.copies) {
		return &LowerMismatchError{Line: -1, Slot: -1,
			Detail: fmt.Sprintf("copies %+v, re-lowering yields %+v", low.copies, want.copies)}
	}
	return nil
}

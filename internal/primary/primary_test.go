package primary

import (
	"testing"

	"dtsvliw/internal/isa"
)

func price(p *Pipeline, in isa.Inst, out isa.Outcome) int {
	eff := in.Effects(0, 8, out.EA)
	return p.Price(&in, eff, out)
}

// TestBaseCost: one cycle per plain instruction.
func TestBaseCost(t *testing.T) {
	p := New(isa.Latencies{})
	add := isa.Inst{Op: isa.OpADD, Rd: 1, Rs1: 2, Rs2: 3}
	for i := 0; i < 5; i++ {
		if c := price(p, add, isa.Outcome{}); c != 1 {
			t.Fatalf("plain add cost %d", c)
		}
	}
	if p.Cycles != 5 || p.Bubbles != 0 {
		t.Fatalf("cycles %d bubbles %d", p.Cycles, p.Bubbles)
	}
}

// TestNotTakenBranchBubble: Table 1's 3-cycle bubble applies only to
// not-taken conditional branches.
func TestNotTakenBranchBubble(t *testing.T) {
	p := New(isa.Latencies{})
	br := isa.Inst{Op: isa.OpBICC, Cond: isa.CondE, Imm: 4}
	if c := price(p, br, isa.Outcome{Taken: false, IsCTI: true}); c != 4 {
		t.Fatalf("not-taken bubble: cost %d, want 4", c)
	}
	if c := price(p, br, isa.Outcome{Taken: true, IsCTI: true}); c != 1 {
		t.Fatalf("taken branch: cost %d, want 1", c)
	}
	ba := isa.Inst{Op: isa.OpBICC, Cond: isa.CondA, Imm: 4}
	if c := price(p, ba, isa.Outcome{Taken: true, IsCTI: true}); c != 1 {
		t.Fatalf("ba: cost %d, want 1", c)
	}
	if p.BranchStalls != 1 {
		t.Fatalf("branch stalls %d", p.BranchStalls)
	}
}

// TestLoadUseBubble: an instruction consuming the immediately preceding
// load's result stalls one cycle.
func TestLoadUseBubble(t *testing.T) {
	p := New(isa.Latencies{})
	ld := isa.Inst{Op: isa.OpLD, Rd: 9, Rs1: 1, UseImm: true} // loads %o1
	use := isa.Inst{Op: isa.OpADD, Rd: 10, Rs1: 9, Rs2: 9}    // reads %o1
	noUse := isa.Inst{Op: isa.OpADD, Rd: 10, Rs1: 2, Rs2: 3}

	price(p, ld, isa.Outcome{EA: 0x100, HasEA: true})
	if c := price(p, use, isa.Outcome{}); c != 2 {
		t.Fatalf("load-use cost %d, want 2", c)
	}
	price(p, ld, isa.Outcome{EA: 0x100, HasEA: true})
	if c := price(p, noUse, isa.Outcome{}); c != 1 {
		t.Fatalf("independent after load cost %d, want 1", c)
	}
	// Only the *immediately* preceding load counts.
	price(p, ld, isa.Outcome{EA: 0x100, HasEA: true})
	price(p, noUse, isa.Outcome{})
	if c := price(p, use, isa.Outcome{}); c != 1 {
		t.Fatalf("gap of one instruction still stalled: %d", c)
	}
}

// TestFlushState clears the hazard window across engine switches.
func TestFlushState(t *testing.T) {
	p := New(isa.Latencies{})
	ld := isa.Inst{Op: isa.OpLD, Rd: 9, Rs1: 1, UseImm: true}
	use := isa.Inst{Op: isa.OpADD, Rd: 10, Rs1: 9, Rs2: 9}
	price(p, ld, isa.Outcome{EA: 0x100, HasEA: true})
	p.FlushState()
	if c := price(p, use, isa.Outcome{}); c != 1 {
		t.Fatalf("post-flush load-use cost %d, want 1", c)
	}
}

package progcheck

import "testing"

func TestCapacityCycles(t *testing.T) {
	p := BoundParams{Width: 4, Height: 4}
	if cy := capacityCycles(&p, 9); cy != 3 {
		t.Errorf("9 instrs over width 4 = %d cycles, want 3", cy)
	}
}

func TestRegionIPCMonotoneInGeometry(t *testing.T) {
	// More capacity can never lower a region's bound.
	prev := 0.0
	for _, w := range []int{2, 4, 8, 16} {
		p := BoundParams{Width: w, Height: w}
		ipc := regionIPC(&p, 32, 32, 4, 2)
		if ipc < prev {
			t.Fatalf("bound fell from %.2f to %.2f when width grew to %d", prev, ipc, w)
		}
		prev = ipc
	}
}

func TestRegionIPCRecurrenceLimits(t *testing.T) {
	// With a hard recurrence (rho == cp), unrolling cannot beat one
	// iteration's instrs-per-rho rate.
	p := BoundParams{Width: 16, Height: 16}
	ipc := regionIPC(&p, 8, 8, 4, 4)
	if ipc > 8.0/4.0+1e-9 {
		t.Errorf("bound %.2f exceeds the recurrence-limited rate 2.0", ipc)
	}
	// With no recurrence, unrolling approaches the capacity rate.
	free := regionIPC(&p, 8, 8, 4, 0)
	if free <= ipc {
		t.Errorf("recurrence-free bound %.2f not above the limited %.2f", free, ipc)
	}
}

func TestComputeBoundFloor(t *testing.T) {
	// A program of nothing but dropped instructions still gets the
	// sequential floor of 1.0.
	c := build(t, `
start:
	nop
	ta 0
`)
	b := ComputeBound(c, BoundParams{Width: 4, Height: 4})
	if b.IPC < 1.0 {
		t.Errorf("bound %.2f is below the sequential floor", b.IPC)
	}
}

func TestComputeBoundMonotoneInGeometry(t *testing.T) {
	c := build(t, `
start:
	mov 8, %l0
loop:
	add %g0, 1, %g1
	add %g0, 2, %g2
	add %g0, 3, %g3
	add %g0, 4, %g4
	subcc %l0, 1, %l0
	bg loop
	nop
	ta 0
`)
	prev := 0.0
	for _, w := range []int{2, 4, 8, 16} {
		b := ComputeBound(c, BoundParams{Width: w, Height: w})
		if b.IPC < prev {
			t.Fatalf("program bound fell from %.2f to %.2f at width %d", prev, b.IPC, w)
		}
		prev = b.IPC
	}
}

func TestCyclicMarksLoopNotStraightLine(t *testing.T) {
	c := build(t, `
start:
	mov 4, %l0
loop:
	subcc %l0, 1, %l0
	bg loop
	nop
	ta 0
`)
	cyc := c.cyclic()
	loopB := c.BlockAt(c.Prog.Symbols["loop"])
	if !cyc[loopB] {
		t.Error("loop block not marked cyclic")
	}
	if cyc[c.Entry] {
		t.Error("entry block outside the cycle marked cyclic")
	}
}

func TestRepeatableChainKeepsUnrolledBound(t *testing.T) {
	// The same independent-op body: once as straight-line code (executes
	// once -> single-instance bound) and once inside a loop (repeats ->
	// instances may overlap, bound must not be capped by one instance's
	// critical path times one).
	once := build(t, `
start:
	add %g0, 1, %g1
	add %g1, 1, %g1
	add %g1, 1, %g1
	ta 0
`)
	looped := build(t, `
start:
	mov 9, %l0
loop:
	add %g0, 1, %g1
	add %g1, 1, %g1
	add %g1, 1, %g1
	subcc %l0, 1, %l0
	bg loop
	nop
	ta 0
`)
	p := BoundParams{Width: 8, Height: 8}
	bo := ComputeBound(once, p)
	bl := ComputeBound(looped, p)
	if bl.IPC <= bo.IPC {
		t.Errorf("repeatable region bound %.2f not above once-through %.2f: overlap across instances lost", bl.IPC, bo.IPC)
	}
}

func TestFormatIPC(t *testing.T) {
	if got := FormatIPC(2.375); got != "2.38" {
		t.Errorf("FormatIPC(2.375) = %q", got)
	}
	if got := FormatIPC(nan()); got != "-" {
		t.Errorf("FormatIPC(NaN) = %q", got)
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

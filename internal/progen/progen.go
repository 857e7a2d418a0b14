// Package progen generates random, terminating SPARC V7 programs for
// property-based testing. Every generated program halts with a checksum,
// and its sequential execution is the oracle: the lockstep test machine
// must agree with the DTSVLIW at every synchronisation point.
//
// The generator deliberately produces the hazards the DTSVLIW must handle:
// tight dependence chains, store/load pairs whose addresses collide only
// on some paths (aliasing), deeply nested counted loops (trace reuse and
// exits), calls through register windows, condition-code recycling,
// floating-point flows, and non-schedulable trap instructions that flush
// the scheduling list.
package progen

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Shape selects a program-shape bias: which hazard family the generator
// concentrates on. The differential oracle (internal/oracle) sweeps every
// shape; ShapeMixed is the historical balanced default.
type Shape uint8

// Program shapes.
const (
	// ShapeMixed is the balanced hazard mix (the original generator).
	ShapeMixed Shape = iota
	// ShapeBranchy concentrates on control flow: dense conditional
	// branches sharing condition codes (several branches per block, tag
	// annulment), nested loops and calls.
	ShapeBranchy
	// ShapeAliasing concentrates on memory: store/load pairs whose
	// data-dependent addresses collide only on some paths, and mixed-size
	// accesses that partially overlap.
	ShapeAliasing
	// ShapeMulticycle concentrates on latency: dependent floating-point
	// chains, divisions and load-use sequences, exercising the multicycle
	// scheduling and delayed-commit machinery.
	ShapeMulticycle

	numShapes
)

func (s Shape) String() string {
	switch s {
	case ShapeMixed:
		return "mixed"
	case ShapeBranchy:
		return "branchy"
	case ShapeAliasing:
		return "aliasing"
	case ShapeMulticycle:
		return "multicycle"
	}
	return fmt.Sprintf("shape(%d)", uint8(s))
}

// Shapes lists every program shape.
func Shapes() []Shape {
	out := make([]Shape, numShapes)
	for i := range out {
		out[i] = Shape(i)
	}
	return out
}

// ShapeByName resolves a shape name ("mixed", "branchy", "aliasing",
// "multicycle").
func ShapeByName(name string) (Shape, bool) {
	for _, s := range Shapes() {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}

// Params controls generation.
type Params struct {
	Seed     int64
	Items    int // top-level statement budget
	MaxDepth int // loop/call nesting bound
	Shape    Shape
	// Mem enables load/store generation; FP enables floating point;
	// Calls enables function calls; Traps enables putchar traps.
	Mem, FP, Calls, Traps bool
}

// DefaultParams returns a balanced workload for the given seed.
func DefaultParams(seed int64) Params {
	return Params{Seed: seed, Items: 40, MaxDepth: 3, Mem: true, FP: true, Calls: true, Traps: true}
}

// ShapeParams returns tuned parameters for the given shape and seed.
func ShapeParams(s Shape, seed int64) Params {
	p := DefaultParams(seed)
	p.Shape = s
	switch s {
	case ShapeBranchy:
		p.Items = 55
		p.FP = false
		p.Traps = false
	case ShapeAliasing:
		p.Items = 55
		p.FP = false
		p.Calls = false
		p.Traps = false
	case ShapeMulticycle:
		p.Items = 50
		p.Calls = false
		p.Traps = false
	}
	return p
}

type gen struct {
	rng     *rand.Rand
	p       Params
	b       []byte // program text
	label   int
	funcSrc []byte // function bodies, appended after the main program
}

// Generate produces the assembly source of a random terminating program.
func Generate(p Params) string {
	g := &gen{rng: rand.New(rand.NewSource(p.Seed)), p: p,
		b: make([]byte, 0, 8<<10), funcSrc: make([]byte, 0, 2<<10)}
	return g.program()
}

// Scratch integer registers usable inside one window. %l4..%l7 are loop
// counters (one per nesting depth), %g6/%g7 are address scratch, %o6/%o7
// and %i6/%i7 are stack/return linkage.
var pool = []string{"%g1", "%g2", "%g3", "%g4", "%o0", "%o1", "%o2", "%o3", "%o4", "%o5",
	"%l0", "%l1", "%l2", "%l3", "%i0", "%i1", "%i2", "%i3", "%i4", "%i5"}

func (g *gen) reg() string { return pool[g.rng.Intn(len(pool))] }

// label names a generated label: prefix_n.
type label struct {
	prefix string
	n      int
}

func (g *gen) newLabel(prefix string) label {
	g.label++
	return label{prefix, g.label}
}

func (l label) appendTo(b []byte) []byte {
	b = append(b, l.prefix...)
	b = append(b, '_')
	return strconv.AppendInt(b, int64(l.n), 10)
}

// define appends the line that defines l.
func (g *gen) define(l label) { g.b = append(l.appendTo(g.b), ":\n"...) }

// emit appends one instruction line with no variable part.
func (g *gen) emit(text string) {
	g.b = append(g.b, '\t')
	g.b = append(g.b, text...)
	g.b = append(g.b, '\n')
}

// ins starts an instruction line with mnemonic mn; its operands follow
// through the returned line, closed by end.
func (g *gen) ins(mn string) line {
	g.b = append(g.b, '\t')
	g.b = append(g.b, mn...)
	return line{g: g}
}

// line appends the operands of one instruction, separated by commas.
type line struct {
	g *gen
	n int // operands so far
}

func (l line) next() line {
	if l.n == 0 {
		l.g.b = append(l.g.b, ' ')
	} else {
		l.g.b = append(l.g.b, ", "...)
	}
	l.n++
	return l
}

// str appends a register, label or literal operand.
func (l line) str(s string) line {
	l = l.next()
	l.g.b = append(l.g.b, s...)
	return l
}

// num appends a decimal operand.
func (l line) num(v int) line {
	l = l.next()
	l.g.b = strconv.AppendInt(l.g.b, int64(v), 10)
	return l
}

// hex appends v as fmt's %#x would.
func (l line) hex(v uint32) line {
	l = l.next()
	l.g.b = append(l.g.b, "0x"...)
	l.g.b = strconv.AppendUint(l.g.b, uint64(v), 16)
	return l
}

// numbered appends a register name such as %f3: prefix then n.
func (l line) numbered(prefix string, n int) line {
	l = l.next()
	l.g.b = append(l.g.b, prefix...)
	l.g.b = strconv.AppendInt(l.g.b, int64(n), 10)
	return l
}

func (l line) freg(n int) line { return l.numbered("%f", n) }

func (l line) label(lb label) line {
	l = l.next()
	l.g.b = lb.appendTo(l.g.b)
	return l
}

// mem appends the memory operand [base+index].
func (l line) mem(base, index string) line {
	l = l.next()
	l.g.b = append(l.g.b, '[')
	l.g.b = append(l.g.b, base...)
	l.g.b = append(l.g.b, '+')
	l.g.b = append(l.g.b, index...)
	l.g.b = append(l.g.b, ']')
	return l
}

// memOff appends the memory operand [base+off].
func (l line) memOff(base string, off int) line {
	l = l.next()
	l.g.b = append(l.g.b, '[')
	l.g.b = append(l.g.b, base...)
	l.g.b = append(l.g.b, '+')
	l.g.b = strconv.AppendInt(l.g.b, int64(off), 10)
	l.g.b = append(l.g.b, ']')
	return l
}

// end closes the line.
func (l line) end() { l.g.b = append(l.g.b, '\n') }

func (g *gen) program() string {
	g.b = append(g.b, "\t.data 0x40000\nbuf:\t.space 256\nfbuf:"...)
	for i := 0; i < 16; i++ {
		g.ins(".word").hex(g.rng.Uint32()&0x3FFFFFFF | 0x3F000000).end()
	}
	g.b = append(g.b, "\t.text 0x1000\nstart:\n"...)
	// Seed registers with deterministic junk.
	for _, r := range pool {
		g.ins("set").num(int(g.rng.Int31n(1 << 20))).str(r).end()
	}
	g.emit("set buf, %g6")
	if g.p.FP {
		g.emit("set fbuf, %g7")
		for i := 0; i < 8; i += 2 {
			g.ins("ldf").memOff("%g7", 4*i).freg(i).end()
		}
	}
	// Pre-generate callable functions so calls have targets.
	if g.p.Calls {
		for i := 0; i < 3; i++ {
			g.genFunc(i)
		}
	}
	for i := 0; i < g.p.Items; i++ {
		g.item(0)
	}
	// Checksum: fold the register pool into %o0 and exit.
	g.emit("mov 0, %o0")
	for _, r := range pool[:8] {
		g.ins("xor").str("%o0").str(r).str("%o0").end()
	}
	g.emit("ta 0")
	g.b = append(g.b, g.funcSrc...)
	return string(g.b)
}

// item emits one random statement at the given nesting depth, with the
// distribution of the configured shape.
func (g *gen) item(depth int) {
	switch g.p.Shape {
	case ShapeBranchy:
		g.branchyItem(depth)
	case ShapeAliasing:
		g.aliasingItem(depth)
	case ShapeMulticycle:
		g.multicycleItem(depth)
	default:
		g.mixedItem(depth)
	}
}

// mixedItem is the balanced historical distribution (ShapeMixed).
func (g *gen) mixedItem(depth int) {
	roll := g.rng.Intn(100)
	switch {
	case roll < 40:
		g.alu()
	case roll < 60 && g.p.Mem:
		g.memOp()
	case roll < 68:
		g.condSkip(depth)
	case roll < 80 && depth < g.p.MaxDepth:
		g.loop(depth)
	case roll < 86 && g.p.Calls && depth < g.p.MaxDepth:
		g.call(3)
	case roll < 90 && g.p.FP:
		g.fpOp()
	case roll < 93 && g.p.Traps:
		g.ins("and").str(g.reg()).num(63).str("%o0").end()
		g.emit("add %o0, 48, %o0")
		g.emit("ta 1")
	case roll < 96:
		g.emit("nop")
	default:
		g.mulStep()
	}
}

// branchyItem biases towards control flow: conditional skips, paired
// branches over one set of condition codes (several branches per long
// instruction, exercising tag annulment) and nested loops.
func (g *gen) branchyItem(depth int) {
	roll := g.rng.Intn(100)
	switch {
	case roll < 30:
		g.condSkip(depth)
	case roll < 50:
		g.ccBranchPair()
	case roll < 70 && depth < g.p.MaxDepth:
		g.loop(depth)
	case roll < 78 && g.p.Calls && depth < g.p.MaxDepth:
		g.call(3)
	case roll < 95:
		g.alu()
	default:
		g.mulStep()
	}
}

// aliasingItem biases towards memory hazards: reorderable store/load
// pairs whose runtime addresses sometimes collide, partially overlapping
// mixed-size accesses, and plain memory traffic.
func (g *gen) aliasingItem(depth int) {
	roll := g.rng.Intn(100)
	switch {
	case roll < 30:
		g.aliasPair()
	case roll < 45:
		g.overlapMem()
	case roll < 65:
		g.memOp()
	case roll < 75 && depth < g.p.MaxDepth:
		g.loop(depth)
	case roll < 83:
		g.condSkip(depth)
	default:
		g.alu()
	}
}

// multicycleItem biases towards latency: dependent floating-point chains
// (including division) and load-use sequences whose consumers sit inside
// the producer's latency shadow.
func (g *gen) multicycleItem(depth int) {
	roll := g.rng.Intn(100)
	switch {
	case roll < 30 && g.p.FP:
		g.fpChain()
	case roll < 50 && g.p.Mem:
		g.loadUse()
	case roll < 62 && g.p.FP:
		g.fpOp()
	case roll < 72 && depth < g.p.MaxDepth:
		g.loop(depth)
	case roll < 80:
		g.condSkip(depth)
	default:
		g.alu()
	}
}

// call emits a call to one of the first n functions.
func (g *gen) call(n int) {
	g.ins("call").label(label{"fn", g.rng.Intn(n)}).end()
	g.emit("nop")
}

var aluOps = []string{"add", "sub", "and", "or", "xor", "andn", "orn", "xnor",
	"addcc", "subcc", "andcc", "orcc", "xorcc", "sll", "srl", "sra",
	"addx", "subx"}

// alu emits a random integer ALU instruction.
func (g *gen) alu() {
	op := aluOps[g.rng.Intn(len(aluOps))]
	rd := g.reg()
	rs1 := g.reg()
	if g.rng.Intn(2) == 0 {
		imm := g.rng.Int31n(256)
		if strings.HasPrefix(op, "s") && (op[1] == 'l' || op[1] == 'r') {
			imm = g.rng.Int31n(32)
		}
		g.ins(op).str(rs1).num(int(imm)).str(rd).end()
	} else {
		g.ins(op).str(rs1).str(g.reg()).str(rd).end()
	}
}

var memSizes = []struct {
	ld, st string
	mask   int
}{{"ld", "st", 0xFC}, {"ldub", "stb", 0xFF}, {"lduh", "sth", 0xFE}, {"ldsb", "stb", 0xFF}, {"ldsh", "sth", 0xFE}}

// memOp emits a load or store confined to buf, with data-dependent
// addressing so schedule-time and run-time addresses can differ. The
// address register is drawn from the pool so that independent memory
// operations can be reordered by the scheduler (the precondition for
// runtime aliasing).
func (g *gen) memOp() {
	sz := memSizes[g.rng.Intn(len(memSizes))]
	ra := g.reg()
	if g.rng.Intn(3) == 0 {
		// Fixed offset: collides with data-dependent addresses sometimes.
		g.ins("mov").num(int(g.rng.Int31n(64)) & sz.mask).str(ra).end()
	} else {
		g.ins("and").str(g.reg()).hex(uint32(sz.mask)).str(ra).end()
	}
	if g.rng.Intn(2) == 0 {
		g.ins(sz.ld).mem("%g6", ra).str(g.reg()).end()
	} else {
		g.ins(sz.st).str(g.reg()).mem("%g6", ra).end()
	}
}

// branches are the conditional branches condSkip and ccBranchPair draw
// from; fbranches the floating-point ones.
var (
	branches  = []string{"be", "bne", "bg", "ble", "bge", "bl", "bgu", "bleu", "bcc", "bcs", "bpos", "bneg"}
	fbranches = []string{"fbe", "fbne", "fbl", "fbg", "fble", "fbge"}
	fpOps     = []string{"fadds", "fsubs", "fmuls"}
)

// condSkip emits a compare and a conditional forward branch over a few
// instructions.
func (g *gen) condSkip(depth int) {
	lbl := g.newLabel("skip")
	g.ins("cmp").str(g.reg()).str(g.reg()).end()
	g.ins(branches[g.rng.Intn(len(branches))]).label(lbl).end()
	n := 1 + g.rng.Intn(3)
	for i := 0; i < n; i++ {
		g.alu()
	}
	g.define(lbl)
}

// loop emits a counted loop using the per-depth counter register.
func (g *gen) loop(depth int) {
	ctr := 4 + depth // %l4 upwards
	lbl := g.newLabel("loop")
	iters := 1 + g.rng.Intn(6)
	g.ins("mov").num(iters).numbered("%l", ctr).end()
	g.define(lbl)
	n := 1 + g.rng.Intn(4)
	for i := 0; i < n; i++ {
		g.item(depth + 1)
	}
	g.ins("subcc").numbered("%l", ctr).num(1).numbered("%l", ctr).end()
	g.ins("bg").label(lbl).end()
}

// fpOp emits floating-point arithmetic over %f0..%f7 plus an fcc branch.
func (g *gen) fpOp() {
	f := func() int { return g.rng.Intn(8) }
	g.ins(fpOps[g.rng.Intn(len(fpOps))]).freg(f()).freg(f()).freg(f()).end()
	if g.rng.Intn(3) == 0 {
		lbl := g.newLabel("fskip")
		g.ins("fcmps").freg(f()).freg(f()).end()
		g.ins(fbranches[g.rng.Intn(len(fbranches))]).label(lbl).end()
		g.alu()
		g.define(lbl)
	}
	if g.rng.Intn(4) == 0 {
		g.ins("fstoi").freg(f()).freg(f()).end()
		g.ins("fitos").freg(f()).freg(f()).end()
	}
}

// ccBranchPair emits one compare followed by two conditional branches
// consuming the same condition codes, so blocks carry several branches and
// the VLIW Engine's tag system must annul correctly on either deviation.
func (g *gen) ccBranchPair() {
	g.ins("cmp").str(g.reg()).str(g.reg()).end()
	l1 := g.newLabel("bp")
	g.ins(branches[g.rng.Intn(len(branches))]).label(l1).end()
	g.alu()
	g.define(l1)
	l2 := g.newLabel("bp")
	g.ins(branches[g.rng.Intn(len(branches))]).label(l2).end()
	g.alu()
	g.alu()
	g.define(l2)
}

// aliasPair emits a store through a data-dependent pointer next to a load
// (or store) at a fixed offset: the scheduler sees one pair of addresses
// at schedule time, the VLIW Engine may see another at run time, and the
// two collide only on some paths — the paper's §3.10 aliasing hazard.
func (g *gen) aliasPair() {
	ra := g.reg()
	g.ins("and").str(g.reg()).str("0xFC").str(ra).end()
	fixed := 4 * g.rng.Intn(64)
	switch g.rng.Intn(3) {
	case 0:
		g.ins("st").str(g.reg()).mem("%g6", ra).end()
		g.ins("ld").memOff("%g6", fixed).str(g.reg()).end()
	case 1:
		g.ins("st").str(g.reg()).memOff("%g6", fixed).end()
		g.ins("ld").mem("%g6", ra).str(g.reg()).end()
	default:
		g.ins("st").str(g.reg()).mem("%g6", ra).end()
		g.ins("st").str(g.reg()).memOff("%g6", fixed).end()
	}
}

// overlapMem emits mixed-size accesses to nearby offsets so that byte and
// halfword operations partially overlap a word slot (the address-overlap
// comparisons of the load/store lists are range checks, not equality).
func (g *gen) overlapMem() {
	base := 4 * g.rng.Intn(8)
	g.ins("st").str(g.reg()).memOff("%g6", base).end()
	g.ins("stb").str(g.reg()).memOff("%g6", base+g.rng.Intn(4)).end()
	g.ins("ld").memOff("%g6", base).str(g.reg()).end()
	g.ins("ldsh").memOff("%g6", base+2*g.rng.Intn(2)).str(g.reg()).end()
}

// loadUse emits a load immediately consumed by ALU instructions, placing
// the consumers inside the load's latency shadow under the multicycle
// configurations.
func (g *gen) loadUse() {
	ra := g.reg()
	g.ins("and").str(g.reg()).str("0xFC").str(ra).end()
	rd := g.reg()
	g.ins("ld").mem("%g6", ra).str(rd).end()
	g.ins("add").str(rd).str(g.reg()).str(g.reg()).end()
	if g.rng.Intn(2) == 0 {
		g.ins("xorcc").str(rd).str(g.reg()).str(g.reg()).end()
	}
}

// fpChain emits a dependent floating-point chain, occasionally ending in a
// division or a compare, so multicycle FP latencies stack up on one value.
func (g *gen) fpChain() {
	f := func() int { return g.rng.Intn(8) }
	d := f()
	g.ins(fpOps[g.rng.Intn(len(fpOps))]).freg(f()).freg(f()).freg(d).end()
	g.ins(fpOps[g.rng.Intn(len(fpOps))]).freg(d).freg(f()).freg(d).end()
	if g.rng.Intn(3) == 0 {
		g.ins("fdivs").freg(f()).freg(d).freg(f()).end()
	}
	if g.rng.Intn(3) == 0 {
		lbl := g.newLabel("fchain")
		g.ins("fcmps").freg(d).freg(f()).end()
		g.ins(fbranches[g.rng.Intn(len(fbranches))]).label(lbl).end()
		g.alu()
		g.define(lbl)
	}
}

// mulStep emits a short multiply-step sequence exercising the Y register.
func (g *gen) mulStep() {
	g.ins("wr").str(g.reg()).num(0).str("%y").end()
	g.emit("andcc %g0, 0, %g0")
	rd := g.reg()
	for i := 0; i < 2+g.rng.Intn(3); i++ {
		g.ins("mulscc").str(rd).str(g.reg()).str(rd).end()
	}
	g.ins("rd").str("%y").str(g.reg()).end()
}

// genFunc emits one callable function with a random body into funcSrc.
// Functions use a fresh register window, may call lower-numbered
// functions, and return through %i7.
func (g *gen) genFunc(idx int) {
	main := g.b
	g.b = g.funcSrc
	g.define(label{"fn", idx})
	g.emit("save %sp, -96, %sp")
	n := 2 + g.rng.Intn(5)
	for i := 0; i < n; i++ {
		roll := g.rng.Intn(10)
		switch {
		case roll < 5:
			g.alu()
		case roll < 7 && g.p.Mem:
			g.memOp()
		case roll < 8 && idx > 0:
			g.call(idx)
		default:
			g.condSkip(g.p.MaxDepth)
		}
	}
	g.emit("restore %o0, 0, %o0")
	g.emit("retl")
	g.funcSrc = g.b
	g.b = main
}

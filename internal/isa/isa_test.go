package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomInst draws a random valid instruction for round-trip testing.
func randomInst(r *rand.Rand) Inst {
	encodable := []Op{
		OpADD, OpADDCC, OpADDX, OpADDXCC, OpSUB, OpSUBCC, OpSUBX, OpSUBXCC,
		OpAND, OpANDCC, OpANDN, OpANDNCC, OpOR, OpORCC, OpORN, OpORNCC,
		OpXOR, OpXORCC, OpXNOR, OpXNORCC, OpSLL, OpSRL, OpSRA,
		OpSETHI, OpMULSCC, OpRDY, OpWRY, OpSAVE, OpRESTORE,
		OpCALL, OpBICC, OpFBFCC, OpJMPL, OpTICC,
		OpLD, OpLDUB, OpLDSB, OpLDUH, OpLDSH, OpLDD,
		OpST, OpSTB, OpSTH, OpSTD, OpLDSTUB, OpSWAP,
		OpLDF, OpLDDF, OpSTF, OpSTDF,
		OpFADDS, OpFADDD, OpFSUBS, OpFSUBD, OpFMULS, OpFMULD, OpFDIVS, OpFDIVD,
		OpFMOVS, OpFNEGS, OpFABSS, OpFITOS, OpFITOD, OpFSTOI, OpFDTOI,
		OpFSTOD, OpFDTOS, OpFCMPS, OpFCMPD,
	}
	in := Inst{
		Op:  encodable[r.Intn(len(encodable))],
		Rd:  uint8(r.Intn(32)),
		Rs1: uint8(r.Intn(32)),
		Rs2: uint8(r.Intn(32)),
	}
	switch in.Op {
	case OpCALL:
		in.Imm = r.Int31n(1<<29) - 1<<28
		in.Rd = 15
		in.Rs1, in.Rs2 = 0, 0
	case OpSETHI:
		in.Imm = r.Int31n(1 << 22)
		in.Rs1, in.Rs2 = 0, 0
	case OpBICC, OpFBFCC:
		in.Cond = uint8(r.Intn(16))
		in.Annul = r.Intn(2) == 0
		in.Imm = r.Int31n(1<<21) - 1<<20
		in.Rd, in.Rs1, in.Rs2 = 0, 0, 0
	case OpTICC:
		in.Cond = uint8(r.Intn(16))
		in.Rd = 0
		if r.Intn(2) == 0 {
			in.UseImm = true
			in.Imm = r.Int31n(128)
			in.Rs2 = 0
		}
	case OpRDY:
		in.Rs1, in.Rs2 = 0, 0
	case OpFMOVS, OpFNEGS, OpFABSS, OpFITOS, OpFITOD, OpFSTOI, OpFDTOI,
		OpFSTOD, OpFDTOS, OpFADDS, OpFADDD, OpFSUBS, OpFSUBD,
		OpFMULS, OpFMULD, OpFDIVS, OpFDIVD, OpFCMPS, OpFCMPD:
		// register form only
	default:
		if r.Intn(2) == 0 {
			in.UseImm = true
			in.Imm = r.Int31n(8192) - 4096
			in.Rs2 = 0
		}
	}
	return in
}

// TestEncodeDecodeRoundTrip is the property-based encoder/decoder check:
// Decode(Encode(i)) == i for every valid instruction.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		in := randomInst(r)
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("encode %+v: %v", in, err)
		}
		got, err := Decode(w)
		if err != nil {
			t.Fatalf("decode %#08x (%+v): %v", w, in, err)
		}
		got.Raw = 0
		if got != in {
			t.Fatalf("round trip: %+v -> %#08x -> %+v", in, w, got)
		}
	}
}

// TestEncodeRejectsDisp22Overflow: a branch displacement that does not
// fit its 22-bit field is an error, not a silently masked branch
// somewhere else.
func TestEncodeRejectsDisp22Overflow(t *testing.T) {
	for _, op := range []Op{OpBICC, OpFBFCC} {
		for _, disp := range []int32{-1<<21 - 1, 1 << 21, 1 << 22} {
			if w, err := Encode(Inst{Op: op, Cond: CondA, Imm: disp}); err == nil {
				t.Errorf("%v disp %d encoded as %#08x, want an error", op, disp, w)
			}
		}
		for _, disp := range []int32{-1 << 21, 1<<21 - 1} {
			if _, err := Encode(Inst{Op: op, Cond: CondA, Imm: disp}); err != nil {
				t.Errorf("%v disp %d: %v", op, disp, err)
			}
		}
	}
}

// TestDecodeRejectsGarbage ensures undecodable words error rather than
// aliasing to a wrong instruction class silently.
func TestDecodeRejectsGarbage(t *testing.T) {
	bad := []uint32{
		0x81d82000 | 0x3F<<19, // op3 = 0x3F unused
		0x01FFFFFF,            // format-2 op2 = 7
	}
	for _, w := range bad {
		if _, err := Decode(w); err == nil {
			t.Errorf("Decode(%#08x) should fail", w)
		}
	}
}

// TestEvalICCMatchesArithmetic cross-checks branch conditions against
// actual subtraction results.
func TestEvalICCMatchesArithmetic(t *testing.T) {
	f := func(a, b int32) bool {
		r := uint32(a) - uint32(b)
		icc := SubICC(uint32(a), uint32(b), r, uint32(a) < uint32(b))
		checks := []struct {
			cond uint8
			want bool
		}{
			{CondE, a == b},
			{CondNE, a != b},
			{CondL, a < b},
			{CondLE, a <= b},
			{CondG, a > b},
			{CondGE, a >= b},
			{CondCS, uint32(a) < uint32(b)},
			{CondLEU, uint32(a) <= uint32(b)},
			{CondGU, uint32(a) > uint32(b)},
			{CondCC, uint32(a) >= uint32(b)},
			{CondA, true},
			{CondN, false},
		}
		for _, c := range checks {
			if EvalICC(c.cond, icc) != c.want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestPhysRegWindowOverlap verifies the SPARC in/out overlap: the outs of
// window w are the ins of window SaveCWP(w).
func TestPhysRegWindowOverlap(t *testing.T) {
	for _, nwin := range []int{2, 4, 8, 16, 32} {
		for w := 0; w < nwin; w++ {
			cwp := uint8(w)
			next := SaveCWP(cwp, nwin)
			for k := uint8(0); k < 8; k++ {
				out := PhysReg(cwp, 8+k, nwin)
				in := PhysReg(next, 24+k, nwin)
				if out != in {
					t.Fatalf("nwin=%d w=%d: out%d phys %d != in%d phys %d of next window",
						nwin, w, k, out, k, in)
				}
			}
			// Locals are private.
			for k := uint8(0); k < 8; k++ {
				l := PhysReg(cwp, 16+k, nwin)
				for w2 := 0; w2 < nwin; w2++ {
					if w2 == w {
						continue
					}
					for r := uint8(8); r < 32; r++ {
						if PhysReg(uint8(w2), r, nwin) == l && (r < 16 || r >= 24) {
							continue // ins/outs may alias other windows
						}
						if r >= 16 && r < 24 && PhysReg(uint8(w2), r, nwin) == l {
							t.Fatalf("nwin=%d: local l%d of w%d aliases local of w%d", nwin, k, w, w2)
						}
					}
				}
			}
		}
	}
}

// TestPhysRegRoundTripSaveRestore: save then restore returns to the same
// window.
func TestPhysRegRoundTripSaveRestore(t *testing.T) {
	for _, nwin := range []int{2, 8, 16} {
		for w := 0; w < nwin; w++ {
			if RestoreCWP(SaveCWP(uint8(w), nwin), nwin) != uint8(w) {
				t.Fatalf("save/restore not inverse at w=%d nwin=%d", w, nwin)
			}
		}
	}
}

// TestEffectsNeverContainG0 checks that %g0 never generates dependencies.
func TestEffectsNeverContainG0(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		in := randomInst(r)
		eff := in.Effects(uint8(r.Intn(8)), 8, uint32(r.Intn(1<<20)))
		for _, l := range append(append([]Loc{}, eff.Reads...), eff.Writes...) {
			if l.Kind == LocIReg && l.Idx == 0 {
				t.Fatalf("%v: effects contain %%g0", in.Op)
			}
		}
	}
}

// TestEffectsMemoryOps checks that memory instructions expose their memory
// footprint with the right size and direction.
func TestEffectsMemoryOps(t *testing.T) {
	cases := []struct {
		op      Op
		size    uint8
		isWrite bool
	}{
		{OpLD, 4, false}, {OpLDUB, 1, false}, {OpLDSH, 2, false}, {OpLDD, 8, false},
		{OpST, 4, true}, {OpSTB, 1, true}, {OpSTH, 2, true}, {OpSTD, 8, true},
		{OpLDF, 4, false}, {OpSTDF, 8, true},
	}
	for _, c := range cases {
		in := Inst{Op: c.op, Rd: 2, Rs1: 1, UseImm: true, Imm: 0}
		if c.op == OpLDD || c.op == OpSTD || c.op == OpSTDF {
			in.Rd = 2
		}
		eff := in.Effects(0, 8, 0x1000)
		set := eff.Reads
		if c.isWrite {
			set = eff.Writes
		}
		found := false
		for _, l := range set {
			if l.Kind == LocMem {
				found = true
				if l.Addr != 0x1000 || l.Size != c.size {
					t.Errorf("%v: mem loc %v, want addr 0x1000 size %d", c.op, l, c.size)
				}
			}
		}
		if !found {
			t.Errorf("%v: no memory location in effects", c.op)
		}
	}
}

// TestLocOverlaps covers the overlap matrix.
func TestLocOverlaps(t *testing.T) {
	cases := []struct {
		a, b Loc
		want bool
	}{
		{IReg(3), IReg(3), true},
		{IReg(3), IReg(4), false},
		{IReg(3), FReg(3), false},
		{MemLoc(0x100, 4), MemLoc(0x102, 4), true},
		{MemLoc(0x100, 4), MemLoc(0x104, 4), false},
		{MemLoc(0x100, 1), MemLoc(0x100, 8), true},
		{Loc{Kind: LocICC}, Loc{Kind: LocICC}, true},
		{Loc{Kind: LocICC}, Loc{Kind: LocFCC}, false},
		{Loc{Kind: LocRen, Idx: 1, Addr: 0}, Loc{Kind: LocRen, Idx: 1, Addr: 0}, true},
		{Loc{Kind: LocRen, Idx: 1, Addr: 0}, Loc{Kind: LocRen, Idx: 1, Addr: 2}, false},
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("%v overlaps %v = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(c.a); got != c.want {
			t.Errorf("overlap not symmetric for %v / %v", c.a, c.b)
		}
	}
}

// TestDisasmSmoke ensures every encodable instruction disassembles without
// panicking and nop detection is sound.
func TestDisasmSmoke(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		in := randomInst(r)
		if s := in.Disasm(0x1000); s == "" {
			t.Fatalf("empty disasm for %+v", in)
		}
	}
	nop := Inst{Op: OpSETHI, Rd: 0}
	if !nop.IsNop() || nop.Disasm(0) != "nop" {
		t.Error("canonical nop not recognised")
	}
}

// TestClassPartition: every op belongs to exactly one functional class and
// schedulability is as specified in paper §3.9.
func TestClassPartition(t *testing.T) {
	for op := OpADD; op < numOps; op++ {
		in := Inst{Op: op, Cond: CondE}
		c := in.Class()
		if c > FUBranch {
			t.Errorf("%v: bad class %v", op, c)
		}
	}
	for _, op := range []Op{OpTICC, OpLDSTUB, OpSWAP, OpUNIMP} {
		in := Inst{Op: op}
		if in.IsSchedulable() {
			t.Errorf("%v must be non-schedulable", op)
		}
	}
	ba := Inst{Op: OpBICC, Cond: CondA}
	if !ba.IsUncondBranch() || ba.IsCondBranch() {
		t.Error("ba must be unconditional")
	}
	bn := Inst{Op: OpBICC, Cond: CondN}
	if !bn.IsNop() {
		t.Error("bn must be a nop")
	}
}

package isa

// Sig is a dependency signature: a packed bitset summarising a set of Loc
// footprints so that the Scheduler Unit's overlap queries (the paper's
// §3.7 comparator network, which compares every candidate operand against
// every installed slot in parallel hardware) run as a handful of 64-bit
// word operations instead of pairwise Loc scans.
//
// The encoding is exact for:
//
//   - integer physical registers 0..319 (NumPhysRegs(nwin) for nwin ≤ 19;
//     the experiments use nwin = 16 → 264 registers), one bit each;
//   - floating-point registers 0..63, one bit each;
//   - the ICC, FCC, Y and CWP singletons plus LocNone, one bit each;
//   - renaming registers: class 0 (integer) indices 0..63 in one word,
//     classes 1..4 (fp, flag, mem, y) indices 0..15 packed 16 bits per
//     class in a second word.
//
// Real traces do step outside it. Forwarded renaming registers past the
// packed indices overflow about 1% of the scheduler's true-dependence
// checks on generated programs at 16 windows (1.4% on xlisp; none
// without source forwarding), and every integer register past 319
// overflows: at 32 windows 3–7% of the dependency checks fall back to
// the naive scan.
//
// Two summary flags make the signature safe for everything else:
//
//   - SigMem: the set contains at least one LocMem interval. Memory
//     intervals cannot be represented as fixed bits, so a query whose two
//     sides both carry SigMem must compare the address intervals
//     themselves (the scheduler keeps them in a per-element side table).
//   - SigOver: the set contains a location outside the exact encoding
//     (e.g. a renaming index past the packed range). Queries involving an
//     overflowed signature must fall back to the naive Loc scan.
//
// The contract, verified by TestMaskOverlapMatchesNaive against the naive
// predicate: Hit(a,b) == true implies some Loc in a overlaps some Loc in
// b; and if Hit is false, neither side overflowed, and the sides do not
// both carry SigMem, then no Loc in a overlaps any Loc in b.
type Sig struct {
	Int   [SigIntWords]uint64
	FP    uint64
	Misc  uint64
	Ren   [2]uint64
	Flags uint8
}

// SigIntWords sizes the integer-register bitset: 320 bits covers
// NumPhysRegs(nwin) for every nwin up to 19.
const SigIntWords = 5

// Summary flags.
const (
	SigMem  uint8 = 1 << 0 // set contains a LocMem interval
	SigOver uint8 = 1 << 1 // set contains a location the bits cannot encode
)

// Misc singleton bits.
const (
	sigMiscICC uint64 = 1 << iota
	sigMiscFCC
	sigMiscY
	sigMiscCWP
	sigMiscNone
)

// renPackedClasses is the number of renaming classes after class 0 that
// are packed 16-bits-per-class into Ren[1].
const renPackedClasses = 4

// Reset clears the signature to the empty set.
func (s *Sig) Reset() { *s = Sig{} }

// Empty reports whether the signature encodes no location at all.
func (s *Sig) Empty() bool {
	if s.Flags != 0 || s.FP != 0 || s.Misc != 0 || s.Ren[0] != 0 || s.Ren[1] != 0 {
		return false
	}
	for _, w := range s.Int {
		if w != 0 {
			return false
		}
	}
	return true
}

// Add inserts one location into the signature.
func (s *Sig) Add(l Loc) {
	switch l.Kind {
	case LocIReg:
		if int(l.Idx) < SigIntWords*64 {
			s.Int[l.Idx>>6] |= 1 << (l.Idx & 63)
		} else {
			s.Flags |= SigOver
		}
	case LocFReg:
		if l.Idx < 64 {
			s.FP |= 1 << l.Idx
		} else {
			s.Flags |= SigOver
		}
	case LocICC:
		s.Misc |= sigMiscICC
	case LocFCC:
		s.Misc |= sigMiscFCC
	case LocY:
		s.Misc |= sigMiscY
	case LocCWP:
		s.Misc |= sigMiscCWP
	case LocNone:
		s.Misc |= sigMiscNone
	case LocMem:
		s.Flags |= SigMem
	case LocRen:
		switch {
		case l.Addr == 0 && l.Idx < 64:
			s.Ren[0] |= 1 << l.Idx
		case l.Addr >= 1 && l.Addr <= renPackedClasses && l.Idx < 16:
			s.Ren[1] |= 1 << ((l.Addr-1)*16 + uint32(l.Idx))
		default:
			s.Flags |= SigOver
		}
	default:
		s.Flags |= SigOver
	}
}

// AddSet inserts every location of a footprint.
func (s *Sig) AddSet(locs []Loc) {
	for _, l := range locs {
		s.Add(l)
	}
}

// Or merges o into s.
func (s *Sig) Or(o *Sig) {
	for i := range s.Int {
		s.Int[i] |= o.Int[i]
	}
	s.FP |= o.FP
	s.Misc |= o.Misc
	s.Ren[0] |= o.Ren[0]
	s.Ren[1] |= o.Ren[1]
	s.Flags |= o.Flags
}

// Hit reports whether the exact bits of the two signatures intersect: a
// true result proves a Loc-level overlap. A false result excludes overlap
// only if MemBoth and Over are also false.
func (s *Sig) Hit(o *Sig) bool {
	acc := s.FP&o.FP | s.Misc&o.Misc | s.Ren[0]&o.Ren[0] | s.Ren[1]&o.Ren[1]
	for i := range s.Int {
		acc |= s.Int[i] & o.Int[i]
	}
	return acc != 0
}

// MemBoth reports whether both signatures contain memory intervals, in
// which case the caller must compare address intervals to decide overlap.
func (s *Sig) MemBoth(o *Sig) bool {
	return s.Flags&o.Flags&SigMem != 0
}

// Over reports whether either signature overflowed the exact encoding, in
// which case only a naive Loc scan can decide overlap.
func (s *Sig) Over(o *Sig) bool {
	return (s.Flags|o.Flags)&SigOver != 0
}

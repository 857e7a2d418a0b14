// Package arch holds the architectural state of a SPARC V7 machine
// (register windows, condition codes, Y, FP registers, memory) and a
// sequential interpreter over it. The interpreter is the paper's "test
// machine": it defines correct sequential execution, provides the
// instruction counts used as IPC numerators, and is run in lockstep with
// the DTSVLIW for validation (paper §4, "test mode").
package arch

import (
	"bytes"
	"fmt"
	"unsafe"

	"dtsvliw/internal/isa"
	"dtsvliw/internal/mem"
)

// Software trap numbers recognised by the simulator's OS model. Traps are
// non-schedulable instructions: they always execute on the Primary
// Processor (paper §3.9).
const (
	TrapExit    = 0 // halt; exit code in %o0
	TrapPutChar = 1 // write byte %o0 to the output stream
	TrapPutUint = 2 // write %o0 as decimal to the output stream
)

// StoreRec records one memory write, for lockstep memory comparison.
type StoreRec struct {
	Addr uint32
	Size uint8
}

// State is the full architectural state of one SPARC V7 machine.
type State struct {
	NWin int      //resetcheck:allow window-file geometry is fixed at construction
	Regs []uint32 // 8 + NWin*16 physical integer registers; [0] is %g0
	F    [32]uint32
	icc  uint8
	fcc  uint8
	y    uint32
	cwp  uint8
	PC   uint32

	Mem *mem.Memory //resetcheck:allow the program image is the caller's to reload (see Reset doc)

	Halted   bool
	ExitCode uint32
	Output   []byte

	// Instret counts retired instructions (the sequential instruction
	// count the paper divides by cycles to obtain IPC).
	Instret uint64

	// LogStores enables journaling of memory writes into StoreLog for
	// lockstep memory comparison.
	LogStores bool
	StoreLog  []StoreRec

	dec *decodeCache //resetcheck:allow pure function of raw instruction bits; sharing it across runs is the point
}

// NewState builds a machine state with nwin register windows over m.
func NewState(nwin int, m *mem.Memory) *State {
	return &State{
		NWin: nwin,
		Regs: make([]uint32, isa.NumPhysRegs(nwin)),
		Mem:  m,
	}
}

// Reset returns the state to power-on over the same memory object:
// registers, condition codes, PC, halt/exit state, output stream, retired
// count and store journal are cleared. The memory contents and the
// decoded-instruction cache are left to the caller (reload the program,
// then call SetTextRange, which reuses the cache's storage). Reusing a
// reset state is observationally identical to building a fresh one.
func (s *State) Reset() {
	clear(s.Regs)
	s.F = [32]uint32{}
	s.icc, s.fcc, s.y, s.cwp = 0, 0, 0, 0
	s.PC = 0
	s.Halted = false
	s.ExitCode = 0
	s.Output = s.Output[:0]
	s.Instret = 0
	s.LogStores = false
	s.StoreLog = s.StoreLog[:0]
}

// SetTextRange installs a decoded-instruction cache over [base, base+size).
// Self-modifying code is not supported. Installing a new range over a
// state whose previous cache has enough capacity reuses its storage.
func (s *State) SetTextRange(base, size uint32) {
	n := int(size / 4)
	if d := s.dec; d != nil && cap(d.insts) >= n {
		d.base = base
		d.insts = d.insts[:n]
		d.ok = d.ok[:n]
		for i := range d.ok {
			d.ok[i] = false
		}
		if len(d.extra) > 0 {
			clear(d.extra)
		}
		return
	}
	s.dec = &decodeCache{base: base, insts: make([]isa.Inst, n), ok: make([]bool, n)}
}

type decodeCache struct {
	base  uint32
	insts []isa.Inst
	ok    []bool
	// extra memoizes decodes outside [base, base+len*4): handwritten tests
	// and trampolines place code outside the declared text range, and the
	// Primary Processor's first-execution path would otherwise re-decode
	// those words on every visit.
	extra map[uint32]isa.Inst
}

// FetchDecode fetches and decodes the instruction at addr.
func (s *State) FetchDecode(addr uint32) (isa.Inst, error) {
	d := s.dec
	if d != nil && addr >= d.base && addr < d.base+uint32(len(d.insts))*4 {
		i := (addr - d.base) / 4
		if d.ok[i] {
			return d.insts[i], nil
		}
		raw, err := s.Mem.ReadWord(addr)
		if err != nil {
			return isa.Inst{}, err
		}
		in, err := isa.Decode(raw)
		if err != nil {
			return isa.Inst{}, fmt.Errorf("at %#08x: %w", addr, err)
		}
		d.insts[i] = in
		d.ok[i] = true
		return in, nil
	}
	if d != nil {
		if in, hit := d.extra[addr]; hit {
			return in, nil
		}
	}
	raw, err := s.Mem.ReadWord(addr)
	if err != nil {
		return isa.Inst{}, err
	}
	in, err := isa.Decode(raw)
	if err != nil {
		return isa.Inst{}, fmt.Errorf("at %#08x: %w", addr, err)
	}
	if d != nil {
		if d.extra == nil {
			d.extra = make(map[uint32]isa.Inst)
		}
		d.extra[addr] = in
	}
	return in, nil
}

// Register, flag and memory accessors ---------------------------------------

// ReadReg reads physical integer register idx (%g0 reads as zero).
func (s *State) ReadReg(idx uint16) uint32 {
	if idx == 0 {
		return 0
	}
	return s.Regs[idx]
}

// WriteReg writes physical integer register idx (writes to %g0 are
// discarded).
func (s *State) WriteReg(idx uint16, v uint32) {
	if idx == 0 {
		return
	}
	s.Regs[idx] = v
}

// ReadF reads floating-point register idx.
func (s *State) ReadF(idx uint8) uint32 { return s.F[idx&31] }

// WriteF writes floating-point register idx.
func (s *State) WriteF(idx uint8, v uint32) { s.F[idx&31] = v }

// ICC returns the integer condition codes.
func (s *State) ICC() uint8 { return s.icc }

// SetICC sets the integer condition codes.
func (s *State) SetICC(v uint8) { s.icc = v & 15 }

// FCC returns the floating-point condition code.
func (s *State) FCC() uint8 { return s.fcc }

// SetFCC sets the floating-point condition code.
func (s *State) SetFCC(v uint8) { s.fcc = v & 3 }

// Y returns the Y register.
func (s *State) Y() uint32 { return s.y }

// SetY sets the Y register.
func (s *State) SetY(v uint32) { s.y = v }

// CWP returns the current window pointer.
func (s *State) CWP() uint8 { return s.cwp }

// SetCWP sets the current window pointer.
func (s *State) SetCWP(v uint8) { s.cwp = uint8(int(v) % s.NWin) }

// Load reads size bytes at addr from memory.
func (s *State) Load(addr uint32, size uint8) (uint32, error) { return s.Mem.Read(addr, size) }

// Store writes size bytes at addr to memory.
func (s *State) Store(addr uint32, v uint32, size uint8) error {
	if s.LogStores {
		s.StoreLog = append(s.StoreLog, StoreRec{Addr: addr, Size: size})
	}
	return s.Mem.Write(addr, v, size)
}

// Reg reads architectural register r (0..31) in the current window.
func (s *State) Reg(r uint8) uint32 {
	return s.ReadReg(isa.PhysReg(s.cwp, r, s.NWin))
}

// SetReg writes architectural register r (0..31) in the current window.
func (s *State) SetReg(r uint8, v uint32) {
	s.WriteReg(isa.PhysReg(s.cwp, r, s.NWin), v)
}

// --------------------------------------------------------------------------

// HandleTrap performs the OS model's action for software trap num. It is
// shared by the reference machine and the DTSVLIW Primary Processor.
func (s *State) HandleTrap(num uint8) error {
	switch num {
	case TrapExit:
		s.Halted = true
		s.ExitCode = s.Reg(8) // %o0
		return nil
	case TrapPutChar:
		s.Output = append(s.Output, byte(s.Reg(8)))
		return nil
	case TrapPutUint:
		s.Output = append(s.Output, []byte(fmt.Sprintf("%d", s.Reg(8)))...)
		return nil
	}
	return fmt.Errorf("arch: unknown software trap %d at PC %#08x", num, s.PC)
}

// Step executes exactly one instruction sequentially, updating PC and
// Instret. It is the reference semantics for the whole simulator.
func (s *State) Step() error {
	_, _, err := s.StepOutcome()
	return err
}

// StepOutcome executes one instruction and additionally returns its
// decoded form and outcome, which the DTSVLIW Primary Processor forwards
// to the Scheduler Unit.
func (s *State) StepOutcome() (isa.Inst, isa.Outcome, error) {
	if s.Halted {
		return isa.Inst{}, isa.Outcome{}, nil
	}
	in, err := s.FetchDecode(s.PC)
	if err != nil {
		return in, isa.Outcome{}, err
	}
	out, err := s.exec(&in, s.PC)
	if err != nil {
		return in, out, fmt.Errorf("arch: %v executing %q at %#08x", err, in.Disasm(s.PC), s.PC)
	}
	s.Instret++
	if out.Trap {
		if err := s.HandleTrap(out.TrapNum); err != nil {
			return in, out, err
		}
		s.PC += 4
		return in, out, nil
	}
	s.PC = out.NextPC
	return in, out, nil
}

// Run executes until the machine halts or maxInstrs retire. It returns an
// error if the limit is reached before halt.
func (s *State) Run(maxInstrs uint64) error {
	start := s.Instret
	for !s.Halted {
		if err := s.Step(); err != nil {
			return err
		}
		if s.Instret-start >= maxInstrs {
			return fmt.Errorf("arch: instruction limit %d reached at PC %#08x", maxInstrs, s.PC)
		}
	}
	return nil
}

// Clone deep-copies the state, including memory. The clone shares nothing
// with the original; it is how the lockstep test machine is created.
func (s *State) Clone() *State {
	c := *s
	c.Regs = append([]uint32(nil), s.Regs...)
	c.Mem = s.Mem.Snapshot()
	c.Output = append([]byte(nil), s.Output...)
	c.StoreLog = nil
	// The decode cache is append-only between SetTextRange calls, so
	// sharing is safe as long as the clone does not outlive the next
	// SetTextRange on the original (pooled reuse never clones: TestMode
	// configurations bypass the machine pool).
	c.dec = s.dec
	return &c
}

// CompareRegisters reports the first architectural-register difference
// between two states (registers, icc, fcc, y, cwp). It does not compare
// memory; callers compare journaled store addresses separately. The
// lockstep test machine calls it at every commit checkpoint, so equal
// states cost one bulk comparison per array; only a difference is
// located, in scan order, and formatted.
func CompareRegisters(a, b *State) (string, bool) {
	if a.NWin == b.NWin && a.icc == b.icc && a.fcc == b.fcc && a.y == b.y && a.cwp == b.cwp &&
		a.F == b.F && bytes.Equal(wordBytes(a.Regs), wordBytes(b.Regs)) {
		return "", true
	}
	return registerDiff(a, b)
}

// wordBytes views a register file as its bytes, so that comparing two
// files is one bytes.Equal instead of a loop over the words. The view
// is in host byte order, which equality does not depend on; it must not
// be read for values.
func wordBytes(w []uint32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), len(w)*4)
}

// registerDiff is CompareRegisters' element scan: it names the first
// difference in the order NWin, physical registers, F, icc, fcc, y, cwp.
func registerDiff(a, b *State) (string, bool) {
	if a.NWin != b.NWin {
		return fmt.Sprintf("nwin %d != %d", a.NWin, b.NWin), false
	}
	for i := range a.Regs {
		if a.Regs[i] != b.Regs[i] {
			return fmt.Sprintf("phys r%d: %#x != %#x", i, a.Regs[i], b.Regs[i]), false
		}
	}
	for i := range a.F {
		if a.F[i] != b.F[i] {
			return fmt.Sprintf("f%d: %#x != %#x", i, a.F[i], b.F[i]), false
		}
	}
	if a.icc != b.icc {
		return fmt.Sprintf("icc: %#x != %#x", a.icc, b.icc), false
	}
	if a.fcc != b.fcc {
		return fmt.Sprintf("fcc: %#x != %#x", a.fcc, b.fcc), false
	}
	if a.y != b.y {
		return fmt.Sprintf("y: %#x != %#x", a.y, b.y), false
	}
	if a.cwp != b.cwp {
		return fmt.Sprintf("cwp: %d != %d", a.cwp, b.cwp), false
	}
	return "", true
}

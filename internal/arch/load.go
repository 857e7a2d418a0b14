package arch

import "dtsvliw/internal/asm"

// The memory layout every program loader uses: an 8 KB stack mapped at
// [StackBase, StackBase+StackSize), just below 0x80000, with %sp starting
// at InitialSP.
const (
	StackBase = 0x7E000
	StackSize = 0x2000
	InitialSP = 0x7FF00
)

// LoadProgram installs an assembled program into s with the standard
// layout: its sections, the stack mapping, the entry PC, %sp and the
// decoded-instruction cache over the text range. s may be fresh or reset;
// either way the result is the same.
func (s *State) LoadProgram(p *asm.Program) {
	p.Load(s.Mem)
	s.Mem.Map(StackBase, StackSize)
	s.PC = p.Entry
	s.SetReg(14, InitialSP) // %sp
	s.SetTextRange(p.TextBase, p.TextSize)
}

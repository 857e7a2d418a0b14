package progcheck

import (
	"fmt"
	"strings"

	"dtsvliw/internal/asm"
)

// Options configures a progcheck run. The memory layout is the one every
// loader installs (arch.State.LoadProgram): the program's sections and
// the stack at [arch.StackBase, arch.StackBase+arch.StackSize).
type Options struct {
	NWin int // register windows (0 = 8)
}

func (o *Options) fill() {
	if o.NWin <= 0 {
		o.NWin = 8
	}
}

// Result is the outcome of checking one program.
type Result struct {
	CFG   *CFG
	Diags []Diagnostic // sorted, waivers applied
}

// Unwaived returns the diagnostics not covered by a progcheck:allow
// comment, optionally restricted to hard kinds.
func (r *Result) Unwaived(hardOnly bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if d.Waived || (hardOnly && !d.Kind.Hard()) {
			continue
		}
		out = append(out, d)
	}
	return out
}

// Report renders the result as the deterministic text report committed as
// a golden file: one header line, then one line per diagnostic.
func (r *Result) Report(name string) string {
	var sb strings.Builder
	un := len(r.Unwaived(false))
	fmt.Fprintf(&sb, "%s: %d blocks, %d loops, %d diagnostics (%d unwaived)\n",
		name, len(r.CFG.Blocks), len(r.CFG.Loops), len(r.Diags), un)
	for i := range r.Diags {
		fmt.Fprintf(&sb, "  %s\n", r.Diags[i].String())
	}
	return sb.String()
}

// Analyze runs every pass over an already-assembled program. The source
// is consulted only for waiver comments; pass "" to apply no waivers.
func Analyze(p *asm.Program, source string, o Options) *Result {
	o.fill()
	c := BuildCFG(p)
	ds := c.structural()
	ds = append(ds, c.uninitReads()...)
	ds = append(ds, c.windowDepth(o.NWin)...)
	ds = append(ds, c.memRange()...)
	applyWaivers(ds, source)
	return &Result{CFG: c, Diags: ds}
}

// applyWaivers marks the diagnostics a progcheck:allow comment in source
// covers and sorts ds into report order.
func applyWaivers(ds []Diagnostic, source string) {
	w := parseWaivers(source)
	for i := range ds {
		if ds[i].Line > 0 && w.covers(ds[i].Line, ds[i].Kind) {
			ds[i].Waived = true
		}
	}
	sortDiags(ds)
}

// Check assembles the source and runs every pass over it.
func Check(source string, o Options) (*Result, error) {
	p, err := assemble(source)
	if err != nil {
		return nil, err
	}
	return Analyze(p, source, o), nil
}

// Certify assembles the source and certifies the program
// (CertifyProgram).
func Certify(source string) error {
	p, err := assemble(source)
	if err != nil {
		return err
	}
	return CertifyProgram(p, source)
}

func assemble(source string) (*asm.Program, error) {
	p, err := asm.Assemble(source)
	if err != nil {
		return nil, fmt.Errorf("progcheck: assemble: %w", err)
	}
	return p, nil
}

// CertifyProgram fails on any unwaived hard diagnostic of an assembled
// program: the gate generated programs pass before the differential
// oracle or an experiment is allowed to execute them. Advisory
// diagnostics never fail certification (generated code trips them
// benignly). Only the structural pass emits hard kinds, so certification
// builds the graph without dominators or loops, runs that pass alone and
// reads the source's waiver comments only for a hard finding. The
// verdict and a refusal's text are those of Analyze(p, source,
// Options{}).Unwaived(true).
func CertifyProgram(p *asm.Program, source string) error {
	var hard []Diagnostic
	for _, d := range buildGraph(p).structural() {
		if d.Kind.Hard() {
			hard = append(hard, d)
		}
	}
	if len(hard) > 0 {
		applyWaivers(hard, source)
	}
	var msgs []string
	for i := range hard {
		if !hard[i].Waived {
			msgs = append(msgs, hard[i].String())
		}
	}
	if len(msgs) == 0 {
		return nil
	}
	return fmt.Errorf("progcheck: %d hard diagnostic(s):\n%s",
		len(msgs), strings.Join(msgs, "\n"))
}

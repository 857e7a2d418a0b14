package oracle

import (
	"dtsvliw/internal/arch"
	"dtsvliw/internal/asm"
	"dtsvliw/internal/core"
	"dtsvliw/internal/mem"
)

// SweepContext owns the warm simulation state one sweep worker reuses
// across differential runs: a machine pool keyed by configuration, one
// reference-interpreter state per window count and a reusable Ref
// wrapper. Reusing contexts removes the dominant cost of short
// differential runs — building the VLIW Cache line array, scheduler
// tables and page maps per program — without changing a single
// observable result: every reset path restores exact post-construction
// semantics (DESIGN.md §15).
//
// A SweepContext is NOT safe for concurrent use. Parallel sweeps keep
// one per worker, which also keeps them deterministic: a context's reuse
// history never depends on sibling workers.
type SweepContext struct {
	pool *core.MachinePool
	refs map[int]*arch.State // reference states, keyed by window count
	ref  Ref
}

// NewSweepContext builds an empty context; it warms up as it runs.
func NewSweepContext() *SweepContext {
	return &SweepContext{
		pool: core.NewMachinePool(),
		refs: make(map[int]*arch.State),
	}
}

// Pool exposes the machine pool (hit/miss counters for tests and stats).
func (sc *SweepContext) Pool() *core.MachinePool { return sc.pool }

// refState returns a power-on reference state with nwin windows, reusing
// the previous one of that geometry.
func (sc *SweepContext) refState(nwin int) *arch.State {
	st := sc.refs[nwin]
	if st == nil {
		st = arch.NewState(nwin, mem.NewMemory())
		sc.refs[nwin] = st
	} else {
		st.Reset()
		st.Mem.Recycle()
	}
	return st
}

// RunDiff is RunDiff executing on borrowed pooled state: identical
// comparison, identical results, amortised setup cost.
func (sc *SweepContext) RunDiff(source string, cfg core.Config) (*Result, error) {
	cfg = normalizeDiffConfig(cfg)
	p, err := asm.Assemble(source)
	if err != nil {
		return nil, &ProgramError{Stage: "assemble", Err: err}
	}
	refSt := sc.refState(cfg.NWin)
	loadProgram(refSt, p)
	sc.ref.Rebind(refSt)

	ctx, err := sc.pool.Get(cfg)
	if err != nil {
		return nil, &ProgramError{Stage: "machine", Err: err}
	}
	defer sc.pool.Put(ctx)
	st := ctx.State()
	loadProgram(st, p)
	st.LogStores = true
	m, err := ctx.Prepare()
	if err != nil {
		return nil, &ProgramError{Stage: "machine", Err: err}
	}
	return runDiffOn(m, &sc.ref)
}

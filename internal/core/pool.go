package core

import (
	"slices"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/mem"
)

// MachineContext bundles one architectural state with one DTSVLIW machine
// over it, so the pair can be reset and reused across program runs instead
// of being rebuilt per run (machine construction — VLIW Cache line array,
// scheduler tables, cache tag stores — dominates the allocation profile of
// short differential runs). The lifecycle per run is:
//
//	ctx := pool.Get(cfg)          // or NewMachineContext(cfg)
//	load program into ctx.State() // sections, stack, PC, text range
//	m, err := ctx.Prepare()       // warm machine, built on first use
//	m.Run()
//	pool.Put(ctx)                 // resets state+machine, shelves context
//
// The machine is built lazily at Prepare, after the program is loaded,
// because TestMode clones the architectural state at construction time.
type MachineContext struct {
	cfg    Config
	st     *arch.State
	m      *Machine
	pooled bool
}

// Poolable reports whether cfg supports context reuse. TestMode machines
// clone the state at construction and telemetry collectors accumulate for
// exactly one run, so both are built one-shot; everything else resets.
func Poolable(cfg Config) bool {
	return !cfg.TestMode && cfg.Telemetry == nil
}

// NewMachineContext builds a fresh context for cfg: an empty architectural
// state (no program loaded) and a machine deferred to Prepare.
func NewMachineContext(cfg Config) (*MachineContext, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &MachineContext{
		cfg:    cfg,
		st:     arch.NewState(cfg.NWin, mem.NewMemory()),
		pooled: Poolable(cfg),
	}, nil
}

// State returns the context's architectural state, for program loading.
// After Get/NewMachineContext it is observationally a fresh state over a
// fresh memory.
func (c *MachineContext) State() *arch.State { return c.st }

// Config returns the configuration the context was built for.
func (c *MachineContext) Config() Config { return c.cfg }

// Prepare returns the context's machine, building it on first use (and on
// every use for non-poolable configurations, whose machines are one-shot).
// Call it after the program has been loaded into State.
func (c *MachineContext) Prepare() (*Machine, error) {
	if c.m != nil && c.pooled {
		return c.m, nil
	}
	m, err := NewMachine(c.cfg, c.st)
	if err != nil {
		return nil, err
	}
	if c.pooled {
		c.m = m
	}
	return m, nil
}

// Recycle resets the context for another run: the architectural state
// returns to power-on, the memory unmaps every page into its free list,
// and the machine (if built) resets. A no-op for non-poolable contexts.
func (c *MachineContext) Recycle() {
	if !c.pooled {
		return
	}
	c.st.Reset()
	c.st.Mem.Recycle()
	if c.m != nil {
		c.m.Reset()
	}
}

// MachinePool hands out warm MachineContexts, one shelf of recycled
// contexts per configuration. It is NOT safe for concurrent use: parallel
// drivers keep one pool per worker, which also keeps runs deterministic
// (a context's allocation history never depends on sibling workers).
type MachinePool struct {
	shelves []shelf

	// Hits counts Gets served by a recycled context, Misses those that
	// built a fresh one (non-poolable configurations always miss).
	Hits, Misses uint64
}

// shelf holds the recycled contexts of one configuration.
type shelf struct {
	cfg  Config
	free []*MachineContext
}

// NewMachinePool builds an empty pool.
func NewMachinePool() *MachinePool { return &MachinePool{} }

// Get returns a context for cfg, recycling a shelved one when available.
func (p *MachinePool) Get(cfg Config) (*MachineContext, error) {
	if s := p.shelf(&cfg); s != nil && len(s.free) > 0 {
		c := s.free[len(s.free)-1]
		s.free[len(s.free)-1] = nil
		s.free = s.free[:len(s.free)-1]
		p.Hits++
		return c, nil
	}
	p.Misses++
	return NewMachineContext(cfg)
}

// Put recycles a context back into the pool. Non-poolable contexts (and
// nil) are dropped.
func (p *MachinePool) Put(c *MachineContext) {
	if c == nil || !c.pooled {
		return
	}
	c.Recycle()
	s := p.shelf(&c.cfg)
	if s == nil {
		cfg := c.cfg
		cfg.FUs = slices.Clone(cfg.FUs) // the shelf keeps its own key
		p.shelves = append(p.shelves, shelf{cfg: cfg})
		s = &p.shelves[len(p.shelves)-1]
	}
	s.free = append(s.free, c)
}

// shelf returns the shelf whose configuration equals cfg, or nil.
func (p *MachinePool) shelf(cfg *Config) *shelf {
	for i := range p.shelves {
		if sameConfig(&p.shelves[i].cfg, cfg) {
			return &p.shelves[i]
		}
	}
	return nil
}

// sameConfig reports whether a and b build interchangeable machines:
// every field is equal by value, FUs element by element, and the
// Telemetry and Metrics attachments by identity. Identity is what pooling
// needs: a pooled machine keeps publishing to the registry it resolved
// instruments from, and comparing through the pointers would read shared
// mutable state (the registry's maps race with concurrent publishers).
// Go cannot compare a Config with == because of FUs, and a comparison
// through reflect would move Get's argument to the heap, hence the field
// list; TestMachinePoolSharesOnlyEqualConfigs changes every field, found
// by reflection, and fails on one this list misses.
func sameConfig(a, b *Config) bool {
	return a.Width == b.Width && a.Height == b.Height && slices.Equal(a.FUs, b.FUs) &&
		a.NWin == b.NWin && a.ICache == b.ICache && a.DCache == b.DCache &&
		a.VCacheKB == b.VCacheKB && a.VCacheAssoc == b.VCacheAssoc &&
		a.NextLIMissPenalty == b.NextLIMissPenalty && a.StoreScheme == b.StoreScheme &&
		a.InterpretedEngine == b.InterpretedEngine && a.NoChain == b.NoChain &&
		a.ExitPrediction == b.ExitPrediction && a.NoSourceForwarding == b.NoSourceForwarding &&
		a.SchedStrategy == b.SchedStrategy && a.SchedNodeBudget == b.SchedNodeBudget &&
		a.Latencies == b.Latencies && a.Telemetry == b.Telemetry && a.Metrics == b.Metrics &&
		a.TestMode == b.TestMode && a.VerifyBlocks == b.VerifyBlocks && a.Fault == b.Fault &&
		a.MaxInstrs == b.MaxInstrs && a.MaxCycles == b.MaxCycles && a.FastForward == b.FastForward
}

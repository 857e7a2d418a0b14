package optsched

import (
	"sort"

	"dtsvliw/internal/sched"
)

// Result reports one block repacking.
type Result struct {
	OrigLIs int    // FCFS schedule height (rows)
	OptLIs  int    // best height found (== OrigLIs when FCFS was not beaten)
	Proven  bool   // the search completed: OptLIs is the true optimum
	Nodes   uint64 // branch-and-bound row trials spent
}

// Repack rewrites block b in place into the shortest schedule the
// branch-and-bound can prove legal under cfg, preserving the block's
// instruction set, rename/copy structure, recorded outcomes and trace.
// budget bounds the search in row trials (0 selects DefaultNodeBudget,
// negative removes the bound); an exhausted budget keeps the best
// schedule found so far, which is never worse than the input (the FCFS
// schedule is the incumbent). The block is untouched when FCFS is not
// beaten.
func Repack(b *sched.Block, cfg sched.Config, budget int) Result {
	switch budget {
	case 0:
		budget = DefaultNodeBudget
	default:
		if budget < 0 {
			budget = 0 // unlimited inside the searcher
		}
	}
	res := Result{OrigLIs: b.NumLIs, OptLIs: b.NumLIs}
	if b.NumLIs <= 1 || b.ValidOps == 0 {
		res.Proven = true
		return res
	}
	p := newProblem(b, cfg)
	sr := p.search(cfg.Height, budget)
	res.Proven = sr.proven
	res.Nodes = sr.nodes
	if sr.li == nil {
		return res // FCFS never beaten: block unchanged
	}
	res.OptLIs = sr.rows
	apply(b, cfg, p, sr)
	return res
}

// apply rewrites the block's slot grid to the found assignment and
// re-derives the placement-dependent metadata: next-block-address line,
// branch tags, and memory cross bits.
func apply(b *sched.Block, cfg sched.Config, p *problem, sr searchResult) {
	w := cfg.Width
	backing := make([]*sched.Slot, sr.rows*w)
	b.LIs = make([][]*sched.Slot, sr.rows)
	for r := 0; r < sr.rows; r++ {
		b.LIs[r] = backing[r*w : (r+1)*w : (r+1)*w]
	}
	for i := range p.ops {
		b.LIs[sr.li[i]][sr.col[i]] = p.ops[i].s
	}
	b.NumLIs = sr.rows
	b.NBA.Line = sr.rows - 1

	// Branch tags: a slot's tag counts the older conditional/indirect
	// branches sharing its long instruction (paper §3.8).
	for _, row := range b.LIs {
		for _, s := range row {
			if s == nil {
				continue
			}
			var tag uint8
			for _, t := range row {
				if t != nil && t != s && t.IsCondOrIndirectBranch() && t.Seq < s.Seq {
					tag++
				}
			}
			s.Tag = tag
		}
	}

	// Cross bits: when a younger memory access no longer executes strictly
	// after an older one (and a store is involved), the younger must enter
	// the engine's cross load/store lists for runtime aliasing detection
	// (paper §3.10). Existing bits are kept — an extra cross bit costs at
	// worst a spurious aliasing exception, never a missed one.
	type memRef struct {
		s  *sched.Slot
		li int32
	}
	var mems []memRef
	for i := range p.ops {
		if p.ops[i].s.IsMem {
			mems = append(mems, memRef{s: p.ops[i].s, li: sr.li[i]})
		}
	}
	sort.Slice(mems, func(i, j int) bool { return mems[i].s.Order < mems[j].s.Order })
	for i, a := range mems {
		for _, c := range mems[i+1:] {
			if a.s.Order < c.s.Order && c.li <= a.li && (a.s.IsStore || c.s.IsStore) {
				c.s.Cross = true
			}
		}
	}
}

package optsched

// Branch-and-bound over row assignments. Ops are assigned in source
// order; for each the legal rows are tried bottom-up (lowest first), so
// the first full descent is exactly a greedy list schedule and every
// later improvement replaces the incumbent. Three prunings bound the
// search:
//
//   - incumbent cap: op i may only use rows ≤ best-2-tail[i] (any higher
//     row cannot beat the incumbent makespan through i's tail chain);
//   - separation floor: rows below max(est, assigned-pair floors) are
//     never tried;
//   - resource matching: a row that cannot absorb the op into a
//     compatible free column (after rearranging its other ops) is
//     rejected by an incremental bipartite matching.
//
// The node budget counts row trials; when it runs out the search unwinds
// and reports the incumbent with Proven=false.

// DefaultNodeBudget bounds the search per block when Repack's budget
// (Strategy.Budget) is zero. Blocks are small (≤ a few hundred ops) and
// the FCFS incumbent is usually near-optimal, so most searches close long
// before this.
const DefaultNodeBudget = 200_000

// searcher carries the mutable state of one branch-and-bound run.
type searcher struct {
	p      *problem
	height int
	budget int64 // remaining row trials; <0 means exhausted
	nodes  uint64

	li     []int32   // current row of ops[0..k)
	colOf  []int32   // current column of ops[0..k)
	rowOcc [][]int32 // rowOcc[r][c] = op index occupying column c, or -1

	best    int32   // incumbent makespan (rows)
	bestLI  []int32 // incumbent assignment (nil until first improvement)
	bestCol []int32
	visited []bool // matching scratch, per column
}

// result of a search.
type searchResult struct {
	rows   int     // best makespan found (rows)
	li     []int32 // nil when the FCFS incumbent was never beaten
	col    []int32
	proven bool
	nodes  uint64
}

func (p *problem) search(height int, budget int) searchResult {
	n := len(p.ops)
	origRows := int32(p.b.NumLIs)
	s := &searcher{
		p:       p,
		height:  height,
		budget:  int64(budget),
		li:      make([]int32, n),
		colOf:   make([]int32, n),
		best:    origRows,
		visited: make([]bool, p.cfg.Width),
	}
	if budget <= 0 {
		s.budget = 1 << 62 // negative/zero budget from Repack = unlimited
	}
	s.rowOcc = make([][]int32, height)
	occBacking := make([]int32, height*p.cfg.Width)
	for i := range occBacking {
		occBacking[i] = -1
	}
	for r := range s.rowOcc {
		s.rowOcc[r] = occBacking[r*p.cfg.Width : (r+1)*p.cfg.Width]
	}

	lb := int32(p.staticLB())
	if origRows <= lb {
		// The FCFS schedule already meets the strongest bound: proven
		// optimal without search.
		return searchResult{rows: int(origRows), proven: true}
	}
	s.dfs(0)
	return searchResult{
		rows: int(s.best), li: s.bestLI, col: s.bestCol,
		proven: s.budget >= 0, nodes: s.nodes,
	}
}

func (s *searcher) dfs(k int) {
	p := s.p
	n := len(p.ops)
	if k == n {
		// Complete assignment: the incumbent cap guarantees it is
		// strictly better than best.
		var rows int32
		for _, r := range s.li {
			if r+1 > rows {
				rows = r + 1
			}
		}
		s.best = rows
		if s.bestLI == nil {
			s.bestLI = make([]int32, n)
			s.bestCol = make([]int32, n)
		}
		copy(s.bestLI, s.li)
		copy(s.bestCol, s.colOf)
		return
	}
	if s.budget < 0 {
		return
	}
	o := &p.ops[k]
	lo := p.est[k]
	for i := 0; i < k; i++ {
		if d := p.sep[i*n+k]; d != noSep && s.li[i]+d > lo {
			lo = s.li[i] + d
		}
	}
	hi := s.best - 2 - p.tail[k]
	if int(hi) > s.height-1 {
		hi = int32(s.height - 1)
	}
	for r := lo; r <= hi; r++ {
		if rowForbidden(s.li, p.neq[k], r) {
			continue
		}
		s.budget--
		s.nodes++
		if s.budget < 0 {
			return
		}
		if !s.placeInRow(k, o, int(r)) {
			continue
		}
		s.li[k] = r
		s.dfs(k + 1)
		s.removeFromRow(k, int(r))
		if s.budget < 0 {
			return
		}
		// A new incumbent may have tightened hi below r.
		if nh := s.best - 2 - p.tail[k]; nh < hi {
			hi = nh
		}
	}
}

// placeInRow inserts op k into row r, finding a compatible free column —
// rearranging the row's other ops along an augmenting path if needed
// (Kuhn's matching). Returns false when the row cannot absorb the op.
func (s *searcher) placeInRow(k int, o *op, r int) bool {
	for c := range s.visited {
		s.visited[c] = false
	}
	return s.augment(k, o, s.rowOcc[r])
}

func (s *searcher) augment(k int, o *op, occ []int32) bool {
	for c := 0; c < s.p.cfg.Width; c++ {
		if s.visited[c] || !s.p.cfg.SlotAccepts(c, o.cls) {
			continue
		}
		s.visited[c] = true
		if occ[c] < 0 || s.augment(int(occ[c]), &s.p.ops[occ[c]], occ) {
			occ[c] = int32(k)
			s.colOf[k] = int32(c)
			return true
		}
	}
	return false
}

// rowForbidden reports whether row r is excluded for the op by a
// not-same-row (WAW) constraint against an already-assigned op.
func rowForbidden(li []int32, neq []int32, r int32) bool {
	for _, i := range neq {
		if li[i] == r {
			return true
		}
	}
	return false
}

// removeFromRow takes op k back out of row r.
func (s *searcher) removeFromRow(k int, r int) {
	s.rowOcc[r][s.colOf[k]] = -1
}

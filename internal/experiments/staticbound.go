package experiments

import (
	"fmt"

	"dtsvliw/internal/progcheck"
	"dtsvliw/internal/stats"
	"dtsvliw/internal/workloads"
)

// The static-bound study (DESIGN.md §18): for every workload × geometry,
// compare the static ILP upper bound progcheck derives from the program's
// dependence structure against the measured IPC of the optimal-repacking
// strategy and the hardware's FCFS strategy. The three form a chain —
// static bound ≥ optimal ≥ FCFS — that locates the dynamic scheduler
// between what the program structure permits and what the greedy hardware
// achieves; the experiments test suite asserts the chain on every point.

// StaticBoundRow is one workload × geometry comparison.
type StaticBoundRow struct {
	Workload  string  `json:"workload"`
	Width     int     `json:"width"`
	Height    int     `json:"height"`
	StaticIPC float64 `json:"static_ipc_bound"`
	OptIPC    float64 `json:"optimal_ipc"`
	FCFSIPC   float64 `json:"fcfs_ipc"`
	// OptOfBoundPct is how much of the static ceiling the optimal dynamic
	// schedule realises (100*opt/static).
	OptOfBoundPct float64 `json:"opt_of_bound_pct"`
}

// StaticBoundRows computes the study: the dynamic IPCs come from the
// scheduling-gap runs, the static bounds from progcheck's dependence
// analysis of the same sources under the same geometry and latency model
// (the ideal machine's single-cycle latencies).
func StaticBoundRows(o SchedGapOptions) ([]StaticBoundRow, error) {
	gap, err := SchedGapRows(o)
	if err != nil {
		return nil, err
	}
	bounds := map[string]map[[2]int]float64{}
	for _, w := range workloads.All() {
		r, err := progcheck.Check(w.Source, progcheck.Options{})
		if err != nil {
			return nil, fmt.Errorf("staticbound: %s: %w", w.Name, err)
		}
		bounds[w.Name] = map[[2]int]float64{}
		seen := map[[2]int]bool{}
		for _, g := range gap {
			if g.Workload != w.Name || seen[[2]int{g.Width, g.Height}] {
				continue
			}
			seen[[2]int{g.Width, g.Height}] = true
			b := progcheck.ComputeBound(r.CFG, progcheck.BoundParams{Width: g.Width, Height: g.Height})
			bounds[w.Name][[2]int{g.Width, g.Height}] = b.IPC
		}
	}
	rows := make([]StaticBoundRow, 0, len(gap))
	for _, g := range gap {
		row := StaticBoundRow{
			Workload: g.Workload, Width: g.Width, Height: g.Height,
			StaticIPC: bounds[g.Workload][[2]int{g.Width, g.Height}],
			OptIPC:    g.OptIPC, FCFSIPC: g.FCFSIPC,
		}
		if row.StaticIPC > 0 {
			row.OptOfBoundPct = 100 * row.OptIPC / row.StaticIPC
		}
		o.note("staticbound %s %dx%d: static %.2f >= opt %.2f >= fcfs %.2f",
			g.Workload, g.Width, g.Height, row.StaticIPC, row.OptIPC, row.FCFSIPC)
		rows = append(rows, row)
	}
	return rows, nil
}

// StaticBound is the "staticbound" experiment: the study over the
// default geometries.
func StaticBound(o Options) (*stats.Table, error) {
	rows, err := StaticBoundRows(SchedGapOptions{Options: o})
	if err != nil {
		return nil, err
	}
	return StaticBoundTable(rows), nil
}

// StaticBoundTable renders the study rows as a stats.Table.
func StaticBoundTable(rows []StaticBoundRow) *stats.Table {
	t := &stats.Table{
		Title: "Static ILP bound vs dynamic scheduling (ideal machine)",
		Columns: []string{"benchmark", "geometry", "IPC(static bound)",
			"IPC(optimal)", "IPC(fcfs)", "opt/bound"},
		Notes: []string{
			"static bound: dependence-DAG critical-path ceiling per program region (DESIGN.md §18)",
			"invariant: static bound >= optimal >= FCFS on every row (asserted by the test suite)",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Workload, fmt.Sprintf("%dx%d", r.Width, r.Height),
			r.StaticIPC, r.OptIPC, r.FCFSIPC, fmt.Sprintf("%.1f%%", r.OptOfBoundPct))
	}
	return t
}

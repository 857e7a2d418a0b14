package experiments

import (
	"fmt"

	"dtsvliw/internal/core"
	"dtsvliw/internal/stats"
	"dtsvliw/internal/workloads"
)

// The scheduling-gap study (DESIGN.md §14): how much performance does the
// hardware's greedy First-Come-First-Served placement leave on the table
// versus an optimal schedule of the very same trace? Each workload runs
// twice per geometry — once under the FCFS strategy and once under the
// "optimal" strategy, which repacks every block to its minimum legal
// height at flush time — and the gap is reported both statically (long
// instructions removed from the flushed schedules) and dynamically (IPC).

// SchedGapGeometries are the block geometries the scheduling-gap study
// sweeps by default: the small, paper-headline and large corners of the
// Figure 5 grid.
var SchedGapGeometries = [][2]int{{4, 4}, {8, 8}, {16, 16}}

// SchedGapRow is one workload × geometry measurement of the study.
type SchedGapRow struct {
	Workload     string  `json:"workload"`
	Width        int     `json:"width"`
	Height       int     `json:"height"`
	FCFSIPC      float64 `json:"fcfs_ipc"`
	OptIPC       float64 `json:"optimal_ipc"`
	IPCGapPct    float64 `json:"ipc_gap_pct"`    // 100*(opt-fcfs)/fcfs
	FCFSLIs      uint64  `json:"fcfs_lis"`       // flushed long instructions under FCFS packing
	OptLIs       uint64  `json:"optimal_lis"`    // same blocks after repacking
	HeightGapPct float64 `json:"height_gap_pct"` // 100*(fcfs-opt)/fcfs
	Blocks       uint64  `json:"blocks"`         // blocks flushed in the optimal run
	ProvenPct    float64 `json:"proven_pct"`     // blocks whose repack was proven optimal
	SearchNodes  uint64  `json:"search_nodes"`   // branch-and-bound row trials spent
}

// SchedGapOptions parameterises the study beyond the shared Options.
type SchedGapOptions struct {
	Options
	// Geometries overrides SchedGapGeometries.
	Geometries [][2]int
}

// SchedGapRows measures the FCFS-versus-optimal scheduling gap for every
// workload over the requested geometries. Every block of the optimal runs
// is statically verified with internal/blockcheck at save time, so a
// single illegal repacked block fails the study and the reported optimal
// IPCs come from legal schedules only. The FCFS runs are left unverified
// (they are the baseline the rest of the test suite already covers).
func SchedGapRows(o SchedGapOptions) ([]SchedGapRow, error) {
	geoms := o.Geometries
	if len(geoms) == 0 {
		geoms = SchedGapGeometries
	}
	ws := workloads.All()
	jobs := make([]runJob, 0, 2*len(ws)*len(geoms))
	for _, w := range ws {
		for _, g := range geoms {
			fcfs := core.IdealConfig(g[0], g[1])
			opt := core.IdealConfig(g[0], g[1])
			opt.SchedStrategy = "optimal"
			opt.VerifyBlocks = true
			jobs = append(jobs, runJob{w, fcfs}, runJob{w, opt})
		}
	}
	ms, err := runAll(o.Options, jobs)
	if err != nil {
		return nil, err
	}
	rows := make([]SchedGapRow, 0, len(jobs)/2)
	i := 0
	for _, w := range ws {
		for _, g := range geoms {
			fs, os := &ms[i].Stats, &ms[i+1].Stats
			i += 2
			row := SchedGapRow{
				Workload: w.Name, Width: g[0], Height: g[1],
				FCFSIPC:     fs.IPC(),
				OptIPC:      os.IPC(),
				OptLIs:      os.Sched.FlushedLIs,
				FCFSLIs:     os.Sched.FlushedLIs + os.Sched.RepackSavedLIs,
				Blocks:      os.Sched.BlocksFlushed,
				SearchNodes: os.Sched.RepackNodes,
			}
			if row.FCFSIPC > 0 {
				row.IPCGapPct = 100 * (row.OptIPC - row.FCFSIPC) / row.FCFSIPC
			}
			if row.FCFSLIs > 0 {
				row.HeightGapPct = 100 * float64(row.FCFSLIs-row.OptLIs) / float64(row.FCFSLIs)
			}
			if os.Sched.RepackedBlocks > 0 {
				row.ProvenPct = 100 * float64(os.Sched.RepackProven) / float64(os.Sched.RepackedBlocks)
			}
			o.note("schedgap %s %dx%d: IPC %.2f -> %.2f (%+.1f%%), height gap %.1f%%",
				w.Name, g[0], g[1], row.FCFSIPC, row.OptIPC, row.IPCGapPct, row.HeightGapPct)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// SchedGap is the Runner entry: the study over the default geometries.
func SchedGap(o Options) (*stats.Table, error) {
	rows, err := SchedGapRows(SchedGapOptions{Options: o})
	if err != nil {
		return nil, err
	}
	return SchedGapTable(rows), nil
}

// SchedGapTable renders the study rows as a stats.Table.
func SchedGapTable(rows []SchedGapRow) *stats.Table {
	t := &stats.Table{
		Title: "Scheduling gap: FCFS vs optimal block schedules (ideal machine)",
		Columns: []string{"benchmark", "geometry", "IPC(fcfs)", "IPC(optimal)",
			"IPC gap", "LIs(fcfs)", "LIs(optimal)", "height gap", "proven"},
		Notes: []string{
			"optimal: every block repacked to minimum legal height at flush time (DESIGN.md §14)",
			"height gap: long instructions the FCFS schedules wasted; proven: blocks with completed search",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Workload, fmt.Sprintf("%dx%d", r.Width, r.Height),
			r.FCFSIPC, r.OptIPC, fmt.Sprintf("%+.1f%%", r.IPCGapPct),
			r.FCFSLIs, r.OptLIs, fmt.Sprintf("%.1f%%", r.HeightGapPct),
			fmt.Sprintf("%.1f%%", r.ProvenPct))
	}
	return t
}

package experiments

import (
	"encoding/json"
	"testing"
)

// TestSchedGapRows runs the gap study on a small budget and checks the
// invariants of its rows: full workload × geometry coverage, optimal
// schedules never taller than FCFS, sane percentages, and JSON
// round-tripping.
func TestSchedGapRows(t *testing.T) {
	if testing.Short() {
		t.Skip("gap study is long")
	}
	geoms := [][2]int{{4, 4}, {8, 8}}
	rows, err := SchedGapRows(SchedGapOptions{
		Options:    Options{MaxInstrs: 20_000},
		Geometries: geoms,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8*len(geoms) {
		t.Fatalf("rows %d, want %d", len(rows), 8*len(geoms))
	}
	for _, r := range rows {
		if r.OptLIs > r.FCFSLIs {
			t.Errorf("%s %dx%d: optimal schedules taller than FCFS (%d > %d)",
				r.Workload, r.Width, r.Height, r.OptLIs, r.FCFSLIs)
		}
		if r.FCFSIPC <= 0 || r.OptIPC <= 0 {
			t.Errorf("%s %dx%d: non-positive IPC", r.Workload, r.Width, r.Height)
		}
		if r.HeightGapPct < 0 || r.HeightGapPct > 100 {
			t.Errorf("%s %dx%d: height gap %.1f%%", r.Workload, r.Width, r.Height, r.HeightGapPct)
		}
		if r.ProvenPct < 0 || r.ProvenPct > 100 {
			t.Errorf("%s %dx%d: proven %.1f%%", r.Workload, r.Width, r.Height, r.ProvenPct)
		}
	}
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	var back []SchedGapRow
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rows) {
		t.Fatalf("JSON round-trip lost rows: %d -> %d", len(rows), len(back))
	}
	tab := SchedGapTable(rows)
	if len(tab.Rows) != len(rows) || len(tab.Columns) != 9 {
		t.Fatalf("table shape %dx%d", len(tab.Rows), len(tab.Columns))
	}
}

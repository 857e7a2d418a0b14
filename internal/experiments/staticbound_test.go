package experiments

import (
	"encoding/json"
	"testing"
)

// TestStaticBoundInvariant is the load-bearing ordering check of the
// static analysis: for every workload × geometry point, the static ILP
// bound must dominate the measured optimal-schedule IPC, which in turn
// dominates FCFS. A static bound below a measured IPC would mean the
// dependence model is unsound.
func TestStaticBoundInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("bound study is long")
	}
	geoms := [][2]int{{4, 4}, {8, 8}}
	rows, err := StaticBoundRows(SchedGapOptions{
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
		if !(r.StaticIPC >= r.OptIPC) {
			t.Errorf("%s %dx%d: static bound %.3f below optimal IPC %.3f",
				r.Workload, r.Width, r.Height, r.StaticIPC, r.OptIPC)
		}
		if !(r.OptIPC >= r.FCFSIPC) {
			t.Errorf("%s %dx%d: optimal IPC %.3f below FCFS %.3f",
				r.Workload, r.Width, r.Height, r.OptIPC, r.FCFSIPC)
		}
		if r.OptOfBoundPct < 0 || r.OptOfBoundPct > 100+1e-9 {
			t.Errorf("%s %dx%d: opt/bound %.1f%% out of range",
				r.Workload, r.Width, r.Height, r.OptOfBoundPct)
		}
	}
	// Same options, same rows: the report is deterministic.
	again, err := StaticBoundRows(SchedGapOptions{
		Options:    Options{MaxInstrs: 20_000},
		Geometries: geoms,
	})
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(rows)
	b2, _ := json.Marshal(again)
	if string(b1) != string(b2) {
		t.Error("static-bound rows differ across identical runs")
	}
	tab := StaticBoundTable(rows)
	if len(tab.Rows) != len(rows) {
		t.Fatalf("table has %d rows, want %d", len(tab.Rows), len(rows))
	}
}

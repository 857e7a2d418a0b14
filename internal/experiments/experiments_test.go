package experiments

import (
	"strconv"
	"testing"
)

// TestAllExperimentsSmoke runs every experiment with a small instruction
// budget and sanity-checks the table shapes.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep is long")
	}
	o := Options{MaxInstrs: 20_000}
	for _, name := range DefaultNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r, _ := Lookup(name)
			tab, err := r(o)
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Rows) == 0 || len(tab.Columns) == 0 {
				t.Fatalf("empty table for %s", name)
			}
			switch name {
			case "fig5":
				if len(tab.Columns) != 1+len(Fig5Geometries) {
					t.Errorf("fig5 columns %d", len(tab.Columns))
				}
				if len(tab.Rows) != 8 {
					t.Errorf("fig5 rows %d", len(tab.Rows))
				}
			case "fig9":
				if len(tab.Rows) != 9 { // 8 benchmarks + average
					t.Errorf("fig9 rows %d", len(tab.Rows))
				}
			case "table3":
				if len(tab.Rows) != 9 {
					t.Errorf("table3 rows %d", len(tab.Rows))
				}
			}
			// Every numeric IPC cell must parse and be positive.
			if name == "fig5" || name == "fig9" {
				for r := range tab.Rows {
					for c := 1; c < len(tab.Rows[r]); c++ {
						v, err := strconv.ParseFloat(tab.Cell(r, c), 64)
						if err != nil || v <= 0 || v > 32 {
							t.Errorf("%s cell (%d,%d) = %q", name, r, c, tab.Cell(r, c))
						}
					}
				}
			}
		})
	}
}

// TestFig8Decomposition: cost segments must be non-negative-ish (each
// relaxation should not slow the machine down beyond noise).
func TestFig8Decomposition(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	tab, err := Fig8(Options{MaxInstrs: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	for r := range tab.Rows {
		feasible, _ := strconv.ParseFloat(tab.Cell(r, 1), 64)
		ideal, _ := strconv.ParseFloat(tab.Cell(r, 5), 64)
		if ideal+0.05 < feasible {
			t.Errorf("%s: ideal %.2f < feasible %.2f", tab.Cell(r, 0), ideal, feasible)
		}
	}
}

package dif

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"dtsvliw/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "re-record "+statsGoldenPath+" from the current machine")

const statsGoldenPath = "testdata/stats_golden.json"

// TestStatsGolden pins the Figure 9 DIF machine's Stats on every
// workload, run to completion and stopped at 150,000 instructions. Run
// with -update to re-record, only after an intentional timing change.
func TestStatsGolden(t *testing.T) {
	got := map[string]Stats{}
	for _, w := range workloads.All() {
		for _, maxInstrs := range []uint64{0, 150_000} {
			st, err := w.NewState(NWin)
			if err != nil {
				t.Fatal(err)
			}
			m := New(st, maxInstrs)
			if err := m.Run(); err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			got[fmt.Sprintf("%s/max=%d", w.Name, maxInstrs)] = m.Stats
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ") // keys sorted
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(statsGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(statsGoldenPath)
	if err != nil {
		t.Fatalf("golden Stats missing (run with -update to record): %v", err)
	}
	var want map[string]Stats
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d runs, golden has %d", len(got), len(want))
	}
	for k, g := range got {
		if w, ok := want[k]; !ok || g != w {
			t.Errorf("%s: Stats changed\n  got  %+v\n  want %+v", k, g, w)
		}
	}
}

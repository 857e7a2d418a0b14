package experiments

import (
	"strings"
	"testing"
)

// TestParallelMatchesSerial: the worker-pool driver must produce tables
// (and progress notes) byte-identical to the serial path — results are
// reassembled positionally, so scheduling order must not leak into output.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep is long")
	}
	for _, name := range []string{"fig5", "table3", "fig9"} {
		t.Run(name, func(t *testing.T) {
			run := func(workers int) (string, string) {
				var notes strings.Builder
				o := Options{MaxInstrs: 10_000, Workers: workers,
					Progress: func(s string) { notes.WriteString(s); notes.WriteByte('\n') }}
				r, _ := Lookup(name)
				tab, err := r(o)
				if err != nil {
					t.Fatal(err)
				}
				return tab.String() + "\n" + tab.CSV(), notes.String()
			}
			serialTab, serialNotes := run(1)
			parTab, parNotes := run(4)
			if serialTab != parTab {
				t.Errorf("parallel table differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
					serialTab, parTab)
			}
			if serialNotes != parNotes {
				t.Errorf("parallel progress notes differ from serial")
			}
		})
	}
}

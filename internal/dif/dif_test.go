package dif

import (
	"testing"

	"dtsvliw/internal/workloads"
)

// TestDIFWorkloads runs every workload on the DIF machine and validates
// results (the trace-driven model executes sequentially, so correctness
// follows the interpreter; this checks the timing model terminates and
// produces plausible IPC).
func TestDIFWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			st, err := w.NewState(NWin)
			if err != nil {
				t.Fatal(err)
			}
			m := New(st, 150_000)
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if st.Halted {
				if err := w.Validate(st); err != nil {
					t.Fatal(err)
				}
			}
			ipc := m.Stats.IPC()
			if ipc <= 0.2 || ipc > Width {
				t.Errorf("implausible IPC %.2f", ipc)
			}
			t.Logf("%s: IPC %.2f, groups %d, hits %d, instance-ends %d",
				w.Name, ipc, m.Stats.GroupsSaved, m.Stats.GroupHits, m.Stats.InstanceEnds)
		})
	}
}

// TestCacheBytesMatchesPaper checks the exit-map capacity arithmetic the
// paper uses to compare cache sizes (463 KB for 512x2 blocks of 6x6).
func TestCacheBytesMatchesPaper(t *testing.T) {
	want := 1024 * (6*6*6 + 13*19)
	if CacheBytes != want {
		t.Fatalf("CacheBytes = %d, want %d", CacheBytes, want)
	}
	if kb := want / 1024; kb != 463 {
		t.Fatalf("paper arithmetic: %d KB, want 463", kb)
	}
}

package workloads

import (
	"slices"
	"testing"
)

// TestSequentialCorrectness runs every workload on the plain
// sequential interpreter and validates it against its Go reference model.
func TestSequentialCorrectness(t *testing.T) {
	for _, w := range All() {
		t.Run(w.Name, func(t *testing.T) {
			st, err := w.NewState(16)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Run(100_000_000); err != nil {
				t.Fatal(err)
			}
			if err := w.Validate(st); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %d instructions", w.Name, st.Instret)
		})
	}
}

// TestTable pins the workload list to the paper's presentation order and
// holds Names, ByName and All to that one list.
func TestTable(t *testing.T) {
	want := []string{"compress", "gcc", "go", "ijpeg", "m88ksim", "perl", "vortex", "xlisp"}
	names := Names()
	if !slices.Equal(names, want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	ws := All()
	if len(ws) != len(names) {
		t.Fatalf("All() has %d workloads, Names() %d", len(ws), len(names))
	}
	for i, n := range names {
		if w, ok := ByName(n); !ok || w != ws[i] {
			t.Errorf("ByName(%q) = %v, %v; want All()[%d]", n, w, ok, i)
		}
	}
	if _, ok := ByName("specint"); ok {
		t.Error("ByName accepted an unknown name")
	}
	ws[0] = nil
	if All()[0] == nil {
		t.Error("changing All()'s result changed the next call's")
	}
}

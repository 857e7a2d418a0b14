package progen

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "re-record testdata/generate_golden.json from the current generator")

// goldenPath holds one digest per shape over the first goldenSeeds
// generated programs.
const goldenPath = "testdata/generate_golden.json"

const goldenSeeds = 500

// TestGenerateGolden pins the generator's output byte for byte: the
// first goldenSeeds programs of every shape must hash to the recorded
// digest. Run with -update to re-record, only after an intentional
// change of the generated programs.
func TestGenerateGolden(t *testing.T) {
	got := map[string]string{}
	for _, shape := range Shapes() {
		h := sha256.New()
		for seed := int64(0); seed < goldenSeeds; seed++ {
			h.Write([]byte(Generate(ShapeParams(shape, seed))))
		}
		got[shape.String()] = hex.EncodeToString(h.Sum(nil))
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ") // keys sorted
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden digests missing (run with -update to record): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d shapes, the generator %d", len(want), len(got))
	}
	for _, shape := range Shapes() {
		if k := shape.String(); got[k] != want[k] {
			t.Errorf("%s: generated programs changed\n  got  %q\n  want %q", k, got[k], want[k])
		}
	}
}

package progcheck_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"os"
	"sort"
	"testing"

	"dtsvliw/internal/asm"
	"dtsvliw/internal/progcheck"
	"dtsvliw/internal/progen"
	"dtsvliw/internal/workloads"
)

// cfgGoldenPath holds one digest per corpus entry: each workload and
// each progen shape's first cfgGoldenSeeds programs.
const cfgGoldenPath = "testdata/cfg_golden.json"

// cfgGoldenSeeds is the number of generated programs hashed per shape.
const cfgGoldenSeeds = 250

// TestCFGGolden pins BuildCFG's whole output, edge order included: every
// block's Start, End, Succs, Preds, Reachable, Idom and CallPad, the
// entry, the roots and the loops, over the eight workloads and
// cfgGoldenSeeds progen programs per shape. Run with -update to
// re-record, only after an intentional change of the graph.
func TestCFGGolden(t *testing.T) {
	got := map[string]string{}
	for _, w := range workloads.All() {
		h := sha256.New()
		hashCFG(t, h, w.Source)
		got["workload/"+w.Name] = hex.EncodeToString(h.Sum(nil))
	}
	for _, shape := range progen.Shapes() {
		h := sha256.New()
		for seed := int64(0); seed < cfgGoldenSeeds; seed++ {
			hashCFG(t, h, progen.Generate(progen.ShapeParams(shape, seed)))
		}
		got["progen/"+shape.String()] = hex.EncodeToString(h.Sum(nil))
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ") // keys sorted
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cfgGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(cfgGoldenPath)
	if err != nil {
		t.Fatalf("golden digests missing (run with -update to record): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(got)+len(want))
	for k := range got {
		keys = append(keys, k)
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: CFG changed\n  got  %q\n  want %q", k, got[k], want[k])
		}
	}
}

// hashCFG assembles src, builds its CFG and writes the graph to h.
func hashCFG(t *testing.T, h hash.Hash, src string) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v\n%s", err, src)
	}
	c := progcheck.BuildCFG(p)
	var buf [4]byte
	u32 := func(v uint32) {
		binary.BigEndian.PutUint32(buf[:], v)
		h.Write(buf[:])
	}
	ints := func(xs []int) {
		u32(uint32(len(xs)))
		for _, x := range xs {
			u32(uint32(x))
		}
	}
	bit := func(b bool) {
		if b {
			u32(1)
		} else {
			u32(0)
		}
	}
	u32(uint32(len(c.Blocks)))
	for i := range c.Blocks {
		b := &c.Blocks[i]
		u32(b.Start)
		u32(b.End)
		ints(b.Succs)
		ints(b.Preds)
		bit(b.Reachable)
		u32(uint32(b.Idom))
		bit(b.CallPad)
	}
	u32(uint32(c.Entry))
	ints(c.Roots)
	u32(uint32(len(c.Loops)))
	for _, l := range c.Loops {
		u32(uint32(l.Head))
		ints(l.Blocks)
	}
}

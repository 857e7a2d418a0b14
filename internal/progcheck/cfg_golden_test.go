package progcheck_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
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

// boundGoldenPath holds one digest per corpus entry and geometry of
// boundGoldenGeoms.
const boundGoldenPath = "testdata/bound_golden.json"

// cfgGoldenSeeds is the number of generated programs hashed per shape.
const cfgGoldenSeeds = 250

// boundGoldenGeoms are the block geometries the bound golden covers:
// the smallest the bound's unrolling clamp and capacity arithmetic
// reach, the paper's ideal 8x8 and feasible 10x8, and its largest.
var boundGoldenGeoms = [][2]int{{2, 2}, {4, 4}, {8, 8}, {10, 8}, {16, 16}}

// TestCFGGolden pins BuildCFG's whole output, edge order included: every
// block's Start, End, Succs, Preds, Reachable, Idom and CallPad, the
// entry, the roots and the loops, over the golden corpus. Run with
// -update to re-record, only after an intentional change of the graph.
func TestCFGGolden(t *testing.T) {
	hs := digests{}
	walkGoldenCorpus(t, func(key string, c *progcheck.CFG) { hashCFG(hs.of(key), c) })
	checkGolden(t, cfgGoldenPath, hs.sums(), "CFG")
}

// TestBoundGolden pins ComputeBound over the golden corpus at every
// geometry of boundGoldenGeoms: the program IPC and every region's kind,
// instruction counts, critical path, recurrence and IPC, in region
// order. Run with -update to re-record, only after an intentional
// change of the bound.
func TestBoundGolden(t *testing.T) {
	hs := digests{}
	walkGoldenCorpus(t, func(key string, c *progcheck.CFG) {
		for _, g := range boundGoldenGeoms {
			b := progcheck.ComputeBound(c, progcheck.BoundParams{Width: g[0], Height: g[1]})
			hashBound(hs.of(fmt.Sprintf("%s/%dx%d", key, g[0], g[1])), b)
		}
	})
	checkGolden(t, boundGoldenPath, hs.sums(), "bound")
}

// walkGoldenCorpus builds the CFG of every golden corpus program and
// passes it to visit with its corpus key: "workload/<name>" for each
// workload, and "progen/<shape>" for each of a shape's first
// cfgGoldenSeeds programs, in seed order.
func walkGoldenCorpus(t *testing.T, visit func(key string, c *progcheck.CFG)) {
	t.Helper()
	build := func(src string) *progcheck.CFG {
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("assemble: %v\n%s", err, src)
		}
		return progcheck.BuildCFG(p)
	}
	for _, w := range workloads.All() {
		visit("workload/"+w.Name, build(w.Source))
	}
	for _, shape := range progen.Shapes() {
		for seed := int64(0); seed < cfgGoldenSeeds; seed++ {
			visit("progen/"+shape.String(), build(progen.Generate(progen.ShapeParams(shape, seed))))
		}
	}
}

// digests keeps one running SHA-256 per golden key.
type digests map[string]hash.Hash

func (d digests) of(key string) hash.Hash {
	h, ok := d[key]
	if !ok {
		h = sha256.New()
		d[key] = h
	}
	return h
}

func (d digests) sums() map[string]string {
	out := make(map[string]string, len(d))
	for k, h := range d {
		out[k] = hex.EncodeToString(h.Sum(nil))
	}
	return out
}

// checkGolden compares got with the digests recorded at path, or
// re-records them under -update; what names the pinned output in
// failure messages.
func checkGolden(t *testing.T, path string, got map[string]string, what string) {
	t.Helper()
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ") // keys sorted
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
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
			t.Errorf("%s: %s changed\n  got  %q\n  want %q", k, what, got[k], want[k])
		}
	}
}

// hasher writes fixed-width big-endian values to a hash.
type hasher struct{ h hash.Hash }

func (w hasher) u32(v uint32) {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], v)
	w.h.Write(buf[:])
}

func (w hasher) f64(v float64) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
	w.h.Write(buf[:])
}

func (w hasher) ints(xs []int) {
	w.u32(uint32(len(xs)))
	for _, x := range xs {
		w.u32(uint32(x))
	}
}

func (w hasher) bit(b bool) {
	if b {
		w.u32(1)
	} else {
		w.u32(0)
	}
}

// hashCFG writes the graph c to h.
func hashCFG(h hash.Hash, c *progcheck.CFG) {
	w := hasher{h}
	w.u32(uint32(len(c.Blocks)))
	for i := range c.Blocks {
		b := &c.Blocks[i]
		w.u32(b.Start)
		w.u32(b.End)
		w.ints(b.Succs)
		w.ints(b.Preds)
		w.bit(b.Reachable)
		w.u32(uint32(b.Idom))
		w.bit(b.CallPad)
	}
	w.u32(uint32(c.Entry))
	w.ints(c.Roots)
	w.u32(uint32(len(c.Loops)))
	for _, l := range c.Loops {
		w.u32(uint32(l.Head))
		w.ints(l.Blocks)
	}
}

// hashBound writes the bound b to h.
func hashBound(h hash.Hash, b *progcheck.Bound) {
	w := hasher{h}
	w.f64(b.IPC)
	w.u32(uint32(len(b.Regions)))
	for _, r := range b.Regions {
		w.h.Write([]byte(r.Kind))
		w.ints([]int{r.Instrs, r.Sched, r.CritPath, r.Rho})
		w.f64(r.IPC)
	}
}

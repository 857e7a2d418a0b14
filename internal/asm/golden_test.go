package asm_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"hash"
	"os"
	"sort"
	"strconv"
	"testing"

	"dtsvliw/internal/asm"
	"dtsvliw/internal/progen"
	"dtsvliw/internal/workloads"
)

var update = flag.Bool("update", false, "re-record testdata/assemble_golden.json from the current assembler")

// goldenPath holds one digest per corpus entry: each workload, each
// progen shape's first goldenSeeds programs, and each ErrorCases row.
const goldenPath = "testdata/assemble_golden.json"

// goldenSeeds is the number of generated programs hashed per shape.
const goldenSeeds = 250

// TestAssembleGolden pins the assembler's output: the eight workloads and
// goldenSeeds progen programs per shape must produce the recorded
// sections, entry, symbols, text range and LineOf at every section
// address, and every ErrorCases source its recorded error text. Run with
// -update to re-record, only after an intentional change of output.
func TestAssembleGolden(t *testing.T) {
	got := map[string]string{}
	for _, w := range workloads.All() {
		h := sha256.New()
		hashProgram(t, h, w.Source)
		got["workload/"+w.Name] = hex.EncodeToString(h.Sum(nil))
	}
	for _, shape := range progen.Shapes() {
		h := sha256.New()
		for seed := int64(0); seed < goldenSeeds; seed++ {
			hashProgram(t, h, progen.Generate(progen.ShapeParams(shape, seed)))
		}
		got["progen/"+shape.String()] = hex.EncodeToString(h.Sum(nil))
	}
	for _, c := range asm.ErrorCases {
		_, err := asm.Assemble(c.Src)
		if err == nil {
			t.Fatalf("source %q assembled, want an error", c.Src)
		}
		sum := sha256.Sum256([]byte(err.Error()))
		got["error/"+strconv.Quote(c.Src)] = hex.EncodeToString(sum[:])
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ") // keys sorted
		if err != nil {
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
			t.Errorf("%s: assembler output changed\n  got  %q\n  want %q", k, got[k], want[k])
		}
	}
}

// hashProgram assembles src and writes everything observable about the
// program to h.
func hashProgram(t *testing.T, h hash.Hash, src string) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v\n%s", err, src)
	}
	var buf [4]byte
	u32 := func(v uint32) {
		binary.BigEndian.PutUint32(buf[:], v)
		h.Write(buf[:])
	}
	u32(p.Entry)
	u32(p.TextBase)
	u32(p.TextSize)
	u32(uint32(len(p.Sections)))
	for _, s := range p.Sections {
		u32(s.Addr)
		u32(uint32(len(s.Bytes)))
		h.Write(s.Bytes)
		for i := range s.Bytes {
			u32(uint32(p.LineOf(s.Addr + uint32(i))))
		}
	}
	names := make([]string, 0, len(p.Symbols))
	for name := range p.Symbols {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h.Write([]byte(name))
		u32(p.Symbols[name])
	}
}

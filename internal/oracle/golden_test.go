package oracle

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/core"
	"dtsvliw/internal/progen"
	"dtsvliw/internal/sched"
	"dtsvliw/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/sched_golden.json and testdata/stats_golden.json from the current machine")

// goldenPath holds the recorded pre-refactor fingerprints: one digest per
// (program, configuration) run, hashing every block the scheduler saved.
// statsGoldenPath holds, under the same keys, a digest of each run's
// final core.Stats: cycle counts, cache and engine counters, the whole
// simulated timing of the run.
const (
	goldenPath      = "testdata/sched_golden.json"
	statsGoldenPath = "testdata/stats_golden.json"
)

// goldenConfigs are the machine configurations the fingerprint corpus
// runs under. They pin the default strategy: the fingerprints were
// recorded from the pre-Strategy FCFS scheduler, so any refactor of the
// default path must reproduce these blocks byte for byte.
func goldenConfigs() []NamedConfig {
	var out []NamedConfig
	for _, name := range []string{"ideal-8x8", "ideal-4x4", "feasible", "multicycle", "nofwd"} {
		nc, ok := ConfigByName(name)
		if !ok {
			panic("golden config missing: " + name)
		}
		out = append(out, nc)
	}
	return out
}

// hashBlocks builds the machine for cfg over the given assembly source
// (or workload), runs it, and hashes every saved block's canonical
// rendering — identity, latency, placement metadata, rename linkage and
// the dependency footprints: everything a strategy could plausibly
// disturb — in save order. stats is the digest of the run's final
// core.Stats.
func hashBlocks(t *testing.T, cfg core.Config, source string, w *workloads.Workload, maxInstrs uint64) (blocks, stats string) {
	t.Helper()
	cfg.MaxInstrs = maxInstrs
	if cfg.MaxCycles == 0 || cfg.MaxCycles > 50_000_000 {
		cfg.MaxCycles = 50_000_000
	}
	var st *arch.State
	var err error
	if w != nil {
		st, err = w.NewState(cfg.NWin)
	} else {
		st, err = BuildState(source, cfg.NWin)
	}
	if err != nil {
		t.Fatalf("state: %v", err)
	}
	m, err := core.NewMachine(cfg, st)
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	h := sha256.New()
	m.BlockHook = func(b *sched.Block) {
		fmt.Fprintf(h, "block tag=%#x cwp=%d lis=%d nba=%v valid=%d ren=%v splits=%d span=[%d,%d) con=%v\n",
			b.Tag, b.EntryCWP, b.NumLIs, b.NBA, b.ValidOps, b.Renames, b.Splits,
			b.FirstSeq, b.EndSeq, b.Conservative)
		for li, row := range b.LIs {
			for col, s := range row {
				if s == nil {
					continue
				}
				fmt.Fprintf(h, "li=%d col=%d inst=%+v addr=%#x seq=%d lat=%d tag=%d", li, col, s.Inst, s.Addr, s.Seq, s.Lat, s.Tag)
				fmt.Fprintf(h, " copy=%v taken=%v target=%#x mem=%v store=%v cross=%v memren=%v",
					s.IsCopy, s.BrTaken, s.BrTarget, s.IsMem, s.IsStore, s.Cross, s.MemRenamed)
				fmt.Fprintf(h, " ea=%#x sz=%d ord=%d cwp=%d", s.MemAddr, s.MemSize, s.Order, s.CWP)
				fmt.Fprintf(h, " ren=%v srcren=%v copies=%v", s.Renames, s.SrcRenames, s.Copies)
				fmt.Fprintf(h, " r=%v w=%v\n", s.Reads(), s.Writes())
			}
		}
	}
	if err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", m.Stats))))
}

// TestGoldenFCFSBlocks proves the Strategy refactor left the default FCFS
// scheduler byte-identical: every block flushed across the golden corpus
// (progen programs over all shapes, plus capped workload prefixes) must
// hash to the digest recorded from the pre-refactor scheduler. The same
// runs also pin simulated timing: each run's final Stats must hash to
// its recorded digest, so a change that keeps every block but moves a
// single cycle or counter fails here. Run with -update to re-record
// (only legitimate when the schedule or the timing model is
// intentionally changed, or Stats gains a field — never to paper over
// an accidental divergence).
func TestGoldenFCFSBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("golden corpus runs full machine simulations")
	}
	got, gotStats := map[string]string{}, map[string]string{}

	// Generated programs: every shape, a spread of seeds, every golden
	// configuration.
	seeds := []int64{1, 2, 3, 5, 17, 101}
	for _, nc := range goldenConfigs() {
		for _, shape := range progen.Shapes() {
			for _, seed := range seeds {
				src := progen.Generate(progen.ShapeParams(shape, seed))
				key := fmt.Sprintf("progen/%s/%d/%s", shape, seed, nc.Name)
				got[key], gotStats[key] = hashBlocks(t, nc.Cfg, src, nil, 0)
			}
		}
	}
	// Workload prefixes: the synthetic SPEC-alikes under the two main
	// machines, capped so the corpus stays fast.
	for _, wname := range []string{"compress", "xlisp"} {
		w, ok := workloads.ByName(wname)
		if !ok {
			t.Fatalf("workload %s missing", wname)
		}
		for _, cname := range []string{"ideal-8x8", "feasible"} {
			nc, _ := ConfigByName(cname)
			key := fmt.Sprintf("workload/%s/%s", wname, cname)
			got[key], gotStats[key] = hashBlocks(t, nc.Cfg, "", w, 60_000)
		}
	}

	if *updateGolden {
		writeGolden(t, goldenPath, got)
		writeGolden(t, statsGoldenPath, gotStats)
		return
	}
	checkGolden(t, goldenPath, got, "block stream diverged from the pre-refactor scheduler")
	checkGolden(t, statsGoldenPath, gotStats, "simulated Stats diverged from the recorded run")
}

// writeGolden records digests as sorted, indented JSON.
func writeGolden(t *testing.T, path string, got map[string]string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	// encoding/json writes map keys sorted, so the file is deterministic.
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("recorded %d fingerprints to %s", len(got), path)
}

// checkGolden compares digests against the file at path, reporting every
// key that is missing or differs.
func checkGolden(t *testing.T, path string, got map[string]string, what string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden fingerprints missing (run with -update to record): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s: corpus size changed: golden has %d runs, corpus produced %d", path, len(want), len(got))
	}
	keys := make([]string, 0, len(got))
	for k := range got { //determinism:allow sorted below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want[k] == "" {
			t.Errorf("%s: no recorded fingerprint in %s (run -update after an intentional change)", k, path)
			continue
		}
		if got[k] != want[k] {
			t.Errorf("%s: %s\n  got  %s\n  want %s", k, what, got[k], want[k])
		}
	}
}

package core

import (
	"bytes"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/asm"
	"dtsvliw/internal/metrics"
	"dtsvliw/internal/workloads"
)

// loadInto assembles source into an existing (fresh or recycled) state,
// mirroring buildState.
func loadInto(t testing.TB, st *arch.State, source string) {
	t.Helper()
	p, err := asm.Assemble(source)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	p.Load(st.Mem)
	st.Mem.Map(0x7F000, 0x1000)
	st.PC = p.Entry
	st.SetReg(14, 0x7FF00)
	st.SetTextRange(p.TextBase, p.TextSize)
}

// runWithRegistry runs source on a non-TestMode machine publishing into
// reg and returns the machine.
func runWithRegistry(t testing.TB, source string, reg *metrics.Registry) *Machine {
	t.Helper()
	cfg := IdealConfig(4, 4)
	cfg.MaxCycles = 50_000_000
	cfg.Metrics = reg
	st := buildState(t, source, cfg.NWin)
	m, err := NewMachine(cfg, st)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return m
}

// checkRegistryMatchesStats fails t unless every counter-table row reads
// the same in the registry snapshot as in s.
func checkRegistryMatchesStats(t *testing.T, snap metrics.Snapshot, s *Stats) {
	t.Helper()
	for _, row := range counterTable {
		got, ok := snap.Value(row.name, "")
		if !ok {
			t.Fatalf("%s: not in snapshot", row.name)
		}
		if want := row.get(s); uint64(got) != want {
			t.Errorf("%s = %d, want %d (Stats)", row.name, got, want)
		}
	}
	for _, row := range setGroupTable {
		for g, want := range row.get(s) {
			got, ok := snap.Value(row.name, setGroupLabels[g])
			if !ok {
				t.Fatalf("%s{group=%q}: not in snapshot", row.name, setGroupLabels[g])
			}
			if uint64(got) != want {
				t.Errorf("%s{group=%q} = %d, want %d (Stats)", row.name, setGroupLabels[g], got, want)
			}
		}
	}
}

// TestMetricsCounterTableComplete: every uint64 counter of Stats, including
// those inside Sched and Engine, is read by a counter-table row, and every
// per-set-group array by a set-group row, so a counter added to Stats
// without a row fails here. Row names are unique. The three chain
// counters are the exception: nothing sets them, so they have no row.
func TestMetricsCounterTableComplete(t *testing.T) {
	unset := map[string]bool{"VCacheChainHits": true, "VCacheChainLinks": true, "VCacheChainUnlinks": true}
	names := map[string]bool{}
	for _, row := range counterTable {
		names[row.name] = true
	}
	for _, row := range setGroupTable {
		names[row.name] = true
	}
	if len(names) != len(counterTable)+len(setGroupTable) {
		t.Errorf("%d rows share %d names", len(counterTable)+len(setGroupTable), len(names))
	}
	var s Stats
	readByRow := func() bool {
		for _, row := range counterTable {
			if row.get(&s) != 0 {
				return true
			}
		}
		return false
	}
	readBySetGroupRow := func() bool {
		for _, row := range setGroupTable {
			if row.get(&s)[0] != 0 {
				return true
			}
		}
		return false
	}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			switch {
			case f.Kind() == reflect.Struct:
				walk(f, name+".")
			case f.Kind() == reflect.Uint64 && !unset[name]:
				f.SetUint(1)
				if !readByRow() {
					t.Errorf("Stats.%s has no counter-table row", name)
				}
				f.SetUint(0)
			case f.Kind() == reflect.Array && f.Type().Elem().Kind() == reflect.Uint64:
				f.Index(0).SetUint(1)
				if !readBySetGroupRow() {
					t.Errorf("Stats.%s has no set-group row", name)
				}
				f.Index(0).SetUint(0)
			}
		}
	}
	walk(reflect.ValueOf(&s).Elem(), "")
}

func ExampleStats_WriteCounters() {
	s := Stats{Cycles: 120, Retired: 96}
	s.Sched.FlushedSlots = 40
	if err := s.WriteCounters(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// machine_cycles:                 120
	// machine_instrs:                 96
	// sched_flushed_slots:            40
}

// TestMachineMetricsReconcile proves the delta-publishing model is exact
// at quiescence: after a run, every registry counter equals the
// corresponding Stats field — the final harvestStats flush publishes the
// unflushed tail, so nothing is lost to the coarse flush cadence.
func TestMachineMetricsReconcile(t *testing.T) {
	reg := metrics.NewRegistry()
	m := runWithRegistry(t, sumLoop, reg)
	snap := reg.Snapshot()
	checkRegistryMatchesStats(t, snap, &m.Stats)
	if m.Stats.BlocksSaved == 0 || m.Stats.VCacheHits == 0 {
		t.Fatalf("degenerate run: %d blocks saved, %d vcache hits", m.Stats.BlocksSaved, m.Stats.VCacheHits)
	}

	// The saved-block histogram saw exactly one observation per block.
	for _, f := range snap.Families {
		if f.Name == "dtsvliw_machine_saved_block_lis" {
			if got := uint64(f.Series[0].Value); got != m.Stats.BlocksSaved {
				t.Errorf("saved_block_lis count = %d, want %d", got, m.Stats.BlocksSaved)
			}
		}
	}

	// Per-set-group lookups sum to the aggregate lookup counter.
	var grouped int64
	for _, f := range snap.Families {
		if f.Name == "dtsvliw_vcache_set_lookups_total" {
			for _, s := range f.Series {
				grouped += s.Value
			}
		}
	}
	if uint64(grouped) != m.Stats.VCacheHits+m.Stats.VCacheMisses {
		t.Errorf("set-group lookups sum %d, want %d", grouped, m.Stats.VCacheHits+m.Stats.VCacheMisses)
	}

	// Gauges are back to zero once the run has returned.
	for _, g := range []string{"dtsvliw_machines_running", "dtsvliw_machines_in_vliw_mode"} {
		if v, _ := snap.Value(g, ""); v != 0 {
			t.Errorf("%s = %d after run, want 0", g, v)
		}
	}
}

// TestMachineMetricsGaugesAfterCappedRun: a MaxInstrs-capped run can
// stop inside a block on the VLIW Engine, but a machine outside Run
// executes on neither engine, so once Run returns both occupancy gauges
// read 0.
func TestMachineMetricsGaugesAfterCappedRun(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := IdealConfig(8, 8)
	cfg.MaxInstrs = 100_000
	cfg.Metrics = reg
	w, _ := workloads.ByName("compress")
	m := runWorkload(t, w, cfg)
	if m.Mode() != ModeVLIW {
		t.Fatal("capped run stopped on the Primary Processor; the VLIW-mode case is untested")
	}
	snap := reg.Snapshot()
	for _, g := range []string{"dtsvliw_machines_running", "dtsvliw_machines_in_vliw_mode"} {
		if v, _ := snap.Value(g, ""); v != 0 {
			t.Errorf("%s = %d after a capped run, want 0", g, v)
		}
	}
}

// TestMachineMetricsHarvestOnError: a run that stops on its cycle limit
// still harvests Stats and publishes them, so neither the caller nor the
// registry loses the part of the run before the error.
func TestMachineMetricsHarvestOnError(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := IdealConfig(4, 4)
	cfg.MaxCycles = 100_000
	cfg.Metrics = reg
	w, _ := workloads.ByName("compress")
	m := workloadMachine(t, w, cfg)
	if err := m.Run(); err == nil || !strings.Contains(err.Error(), "cycle limit") {
		t.Fatalf("Run = %v, want the cycle-limit error", err)
	}
	if m.Stats.Retired == 0 || m.Stats.Retired != m.seq {
		t.Fatalf("Retired = %d, want the machine's sequence count %d", m.Stats.Retired, m.seq)
	}
	if m.Stats.ICacheAccesses == 0 || m.Stats.Sched.Inserted == 0 || m.Stats.Engine.LIsExecuted == 0 {
		t.Fatalf("component counters not harvested: %+v", m.Stats)
	}
	checkRegistryMatchesStats(t, reg.Snapshot(), &m.Stats)
}

// TestMachineMetricsStaleness: a live scrape lags the machine by about
// one flush interval at most, also through long stretches of
// cache-resident blocks on the VLIW Engine. The lag is sampled at every commit
// checkpoint.
func TestMachineMetricsStaleness(t *testing.T) {
	for _, name := range []string{"compress", "go", "m88ksim"} {
		t.Run(name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			cfg := IdealConfig(8, 8)
			cfg.MaxInstrs = 1_000_000
			cfg.Metrics = reg
			w, _ := workloads.ByName(name)
			m := workloadMachine(t, w, cfg)
			published := reg.Counter("dtsvliw_machine_cycles_total", "")
			var worst uint64
			m.CheckpointHook = func(uint64, uint32) error {
				worst = max(worst, m.Stats.Cycles-published.Load())
				return nil
			}
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if worst > 2*metricsFlushCycles {
				t.Errorf("a scrape lagged the machine by %d cycles, want at most %d", worst, 2*metricsFlushCycles)
			}
		})
	}
}

// TestMachineMetricsDumpDeterminism: identical runs against fresh
// registries render byte-identical Prometheus dumps.
func TestMachineMetricsDumpDeterminism(t *testing.T) {
	var dumps [2][]byte
	for i := range dumps {
		reg := metrics.NewRegistry()
		runWithRegistry(t, sumLoop, reg)
		var b bytes.Buffer
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		dumps[i] = b.Bytes()
	}
	if !bytes.Equal(dumps[0], dumps[1]) {
		t.Fatal("identical runs produced different metric dumps")
	}
	if err := metrics.LintText(bytes.NewReader(dumps[0])); err != nil {
		t.Fatalf("machine dump is not valid exposition text: %v", err)
	}
}

var update = flag.Bool("update", false, "re-record "+familiesGolden+" from the current publisher")

// familiesGolden holds the # HELP and # TYPE lines of every family a
// machine registers. A renamed or re-helped family fails
// TestMachineMetricsFamiliesGolden; adding a family is a re-record whose
// diff only adds lines.
const familiesGolden = "testdata/metrics_families.golden"

func TestMachineMetricsFamiliesGolden(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := IdealConfig(4, 4)
	cfg.Metrics = reg
	if _, err := NewMachine(cfg, buildState(t, sumLoop, cfg.NWin)); err != nil {
		t.Fatal(err)
	}
	var dump, got bytes.Buffer
	if err := reg.WritePrometheus(&dump); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.SplitAfter(dump.String(), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			got.WriteString(line)
		}
	}
	if *update {
		if err := os.WriteFile(familiesGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(familiesGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("machine metric families changed:\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}

// TestMachineMetricsPooledCumulative: a recycled context keeps publishing
// into the same registry, and counters accumulate across lifetimes — two
// identical runs exactly double every counter.
func TestMachineMetricsPooledCumulative(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := IdealConfig(4, 4)
	cfg.MaxCycles = 50_000_000
	cfg.Metrics = reg

	ctx, err := NewMachineContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var after1 int64
	for run := 0; run < 2; run++ {
		loadInto(t, ctx.State(), sumLoop)
		m, err := ctx.Prepare()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if run == 0 {
			after1, _ = reg.Snapshot().Value("dtsvliw_machine_cycles_total", "")
			ctx.Recycle()
		}
	}
	after2, _ := reg.Snapshot().Value("dtsvliw_machine_cycles_total", "")
	if after1 == 0 || after2 != 2*after1 {
		t.Fatalf("cycles after runs: %d then %d, want exact doubling", after1, after2)
	}
}

// TestMetricsFlushZeroAlloc guards the publisher's steady state: a flush
// resolves no instruments and allocates nothing.
func TestMetricsFlushZeroAlloc(t *testing.T) {
	reg := metrics.NewRegistry()
	m := runWithRegistry(t, sumLoop, reg)
	if m.pub == nil {
		t.Fatal("machine built without a publisher despite metrics enabled")
	}
	if allocs := testing.AllocsPerRun(100, func() { m.pub.flush(&m.Stats, false) }); allocs != 0 {
		t.Fatalf("publisher flush allocates %.1f objects, want 0", allocs)
	}
}

// TestMetricsDisabledSkipsPublisher: with the process-wide switch off at
// construction, the machine carries no publisher at all.
func TestMetricsDisabledSkipsPublisher(t *testing.T) {
	metrics.SetEnabled(false)
	defer metrics.SetEnabled(true)
	cfg := IdealConfig(4, 4)
	cfg.MaxCycles = 50_000_000
	st := buildState(t, sumLoop, cfg.NWin)
	m, err := NewMachine(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if m.pub != nil {
		t.Fatal("publisher built while metrics disabled")
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

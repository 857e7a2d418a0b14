// Package experiments regenerates every table and figure of the paper's
// evaluation (section 4) on the reproduced DTSVLIW: block size and
// geometry (Figure 5), VLIW Cache size (Figure 6) and associativity
// (Figure 7), the feasible machine (Figure 8 and Table 3), and the
// DTSVLIW-versus-DIF comparison (Figure 9). Each runner returns the
// numbers as a stats.Table whose rows mirror the paper's series.
package experiments

import (
	"fmt"

	"dtsvliw/internal/core"
	"dtsvliw/internal/dif"
	"dtsvliw/internal/isa"
	"dtsvliw/internal/mem"
	"dtsvliw/internal/stats"
	"dtsvliw/internal/telemetry"
	"dtsvliw/internal/vliw"
	"dtsvliw/internal/workloads"
)

// Options bound experiment cost.
type Options struct {
	// MaxInstrs caps the sequential instructions simulated per run (0 =
	// run each workload to completion). The paper ran 50M+ per program;
	// the synthetic workloads run 0.2–1.1M to completion.
	MaxInstrs uint64
	// TestMode enables the lockstep test machine during experiments
	// (slower; every experiment is also covered by tests).
	TestMode bool
	// Workers sets the simulation worker-pool size: 0 uses one worker per
	// CPU, 1 runs serially. Output is identical either way (see
	// parallel.go).
	Workers int
	// Telemetry attaches a telemetry collector to every machine run (the
	// profile runner and the telemetry overhead gate use this).
	Telemetry bool
	// Progress, if non-nil, receives one line per completed run, in
	// deterministic job order.
	Progress func(string)
}

func (o Options) note(format string, args ...interface{}) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// RunOne executes one workload on one DTSVLIW configuration.
func RunOne(w *workloads.Workload, cfg core.Config, o Options) (*core.Machine, error) {
	cfg.TestMode = o.TestMode
	cfg.MaxInstrs = o.MaxInstrs
	if o.Telemetry {
		cfg.Telemetry = &telemetry.Config{}
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 1 << 62
	}
	st, err := w.NewState(cfg.NWin)
	if err != nil {
		return nil, err
	}
	m, err := core.NewMachine(cfg, st)
	if err != nil {
		return nil, err
	}
	if err := m.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if st.Halted {
		if err := w.Validate(st); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Fig5Geometries are the width-by-height block geometries of Figure 5, in
// the paper's legend order (instructions per long instruction, long
// instructions per block).
var Fig5Geometries = [][2]int{
	{4, 4}, {4, 8}, {8, 4}, {4, 16}, {8, 8}, {16, 4}, {8, 16}, {16, 8}, {16, 16},
}

// Fig5 reproduces Figure 5: IPC versus block size and geometry under
// perfect caches and a large VLIW Cache.
func Fig5(o Options) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Figure 5: IPC vs block size and geometry (perfect caches, 3072-KB VLIW Cache)",
		Columns: []string{"benchmark"},
	}
	for _, g := range Fig5Geometries {
		t.Columns = append(t.Columns, fmt.Sprintf("%dx%d", g[0], g[1]))
	}
	ws := workloads.All()
	jobs := make([]runJob, 0, len(ws)*len(Fig5Geometries))
	for _, w := range ws {
		for _, g := range Fig5Geometries {
			jobs = append(jobs, runJob{w, core.IdealConfig(g[0], g[1])})
		}
	}
	ms, err := runAll(o, jobs)
	if err != nil {
		return nil, err
	}
	for wi, w := range ws {
		row := []interface{}{w.Name}
		for gi, g := range Fig5Geometries {
			m := ms[wi*len(Fig5Geometries)+gi]
			row = append(row, m.Stats.IPC())
			o.note("fig5 %s %dx%d: IPC %.2f", w.Name, g[0], g[1], m.Stats.IPC())
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig6Sizes are the VLIW Cache sizes (KB) of Figure 6.
var Fig6Sizes = []int{48, 96, 192, 384, 768, 1536, 3072}

// Fig6 reproduces Figure 6: IPC versus VLIW Cache size for the 8x8
// geometry, 4-way associative.
func Fig6(o Options) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Figure 6: IPC vs VLIW Cache size (8x8 blocks, 4-way)",
		Columns: []string{"benchmark"},
	}
	for _, s := range Fig6Sizes {
		t.Columns = append(t.Columns, fmt.Sprintf("%dKB", s))
	}
	ws := workloads.All()
	jobs := make([]runJob, 0, len(ws)*len(Fig6Sizes))
	for _, w := range ws {
		for _, s := range Fig6Sizes {
			cfg := core.IdealConfig(8, 8)
			cfg.VCacheKB = s
			jobs = append(jobs, runJob{w, cfg})
		}
	}
	ms, err := runAll(o, jobs)
	if err != nil {
		return nil, err
	}
	for wi, w := range ws {
		row := []interface{}{w.Name}
		for si, s := range Fig6Sizes {
			m := ms[wi*len(Fig6Sizes)+si]
			row = append(row, m.Stats.IPC())
			o.note("fig6 %s %dKB: IPC %.2f", w.Name, s, m.Stats.IPC())
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig7Assocs are the associativities of Figure 7; Fig7Sizes its two cache
// sizes.
var (
	Fig7Assocs = []int{1, 2, 4, 8}
	Fig7Sizes  = []int{96, 384}
)

// Fig7 reproduces Figure 7: IPC versus VLIW Cache associativity at 96 KB
// and 384 KB, 8x8 geometry.
func Fig7(o Options) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Figure 7: IPC vs VLIW Cache associativity (8x8 blocks)",
		Columns: []string{"benchmark"},
	}
	for _, s := range Fig7Sizes {
		for _, a := range Fig7Assocs {
			t.Columns = append(t.Columns, fmt.Sprintf("%dKB/%d-way", s, a))
		}
	}
	ws := workloads.All()
	perW := len(Fig7Sizes) * len(Fig7Assocs)
	jobs := make([]runJob, 0, len(ws)*perW)
	for _, w := range ws {
		for _, s := range Fig7Sizes {
			for _, a := range Fig7Assocs {
				cfg := core.IdealConfig(8, 8)
				cfg.VCacheKB = s
				cfg.VCacheAssoc = a
				jobs = append(jobs, runJob{w, cfg})
			}
		}
	}
	ms, err := runAll(o, jobs)
	if err != nil {
		return nil, err
	}
	for wi, w := range ws {
		row := []interface{}{w.Name}
		i := wi * perW
		for _, s := range Fig7Sizes {
			for _, a := range Fig7Assocs {
				m := ms[i]
				i++
				row = append(row, m.Stats.IPC())
				o.note("fig7 %s %dKB/%d: IPC %.2f", w.Name, s, a, m.Stats.IPC())
			}
		}
		t.AddRow(row...)
	}
	return t, nil
}

// fig8Configs builds the cumulative-constraint ladder of Figure 8: from
// the feasible machine (all costs) to the ideal machine (pure ILP), so
// that successive differences isolate each cost component.
func fig8Configs() []core.Config {
	feasible := core.FeasibleConfig() // all constraints
	noNextLI := feasible
	noNextLI.NextLIMissPenalty = 0
	noDC := noNextLI
	noDC.DCache = mem.CacheConfig{Perfect: true}
	noIC := noDC
	noIC.ICache = mem.CacheConfig{Perfect: true}
	ideal := noIC // homogeneous FUs: pure ILP of a 10x8 machine
	ideal.FUs = nil
	return []core.Config{feasible, noNextLI, noDC, noIC, ideal}
}

// Fig8 reproduces Figure 8: the feasible machine's IPC and the stacked
// cost decomposition (next-long-instruction misses, Data Cache,
// Instruction Cache, functional-unit shortage) up to the ideal ILP.
func Fig8(o Options) (*stats.Table, error) {
	t := &stats.Table{
		Title: "Figure 8: feasible DTSVLIW performance decomposition",
		Columns: []string{"benchmark", "IPC(feasible)", "+nextLI", "+DCache",
			"+ICache", "ILP(ideal)", "FU cost", "ICache cost", "DCache cost", "nextLI cost"},
		Notes: []string{
			"IPC(feasible) is the paper's Figure 8 bar; cost columns are the stacked segments",
			"ladder: feasible -> no next-LI penalty -> perfect D$ -> perfect I$ -> homogeneous FUs",
		},
	}
	cfgs := fig8Configs()
	ws := workloads.All()
	jobs := make([]runJob, 0, len(ws)*len(cfgs))
	for _, w := range ws {
		for _, cfg := range cfgs {
			jobs = append(jobs, runJob{w, cfg})
		}
	}
	ms, err := runAll(o, jobs)
	if err != nil {
		return nil, err
	}
	for wi, w := range ws {
		ipcs := make([]float64, len(cfgs))
		for i := range cfgs {
			ipcs[i] = ms[wi*len(cfgs)+i].Stats.IPC()
			o.note("fig8 %s cfg%d: IPC %.2f", w.Name, i, ipcs[i])
		}
		t.AddRow(w.Name, ipcs[0], ipcs[1], ipcs[2], ipcs[3], ipcs[4],
			ipcs[4]-ipcs[3], ipcs[3]-ipcs[2], ipcs[2]-ipcs[1], ipcs[1]-ipcs[0])
	}
	return t, nil
}

// Table3 reproduces the paper's Table 3: performance and resource
// consumption of the feasible DTSVLIW machine.
func Table3(o Options) (*stats.Table, error) {
	t := &stats.Table{
		Title: "Table 3: performance and resource consumption of the feasible DTSVLIW",
		Columns: []string{"benchmark", "IPC", "int-ren", "fp-ren", "flag-ren",
			"mem-ren", "load-list", "store-list", "ckpt-list", "aliasing",
			"%VLIW-cycles", "slot-util", "vc-hit%", "sw/ki"},
		Notes: []string{
			"vc-hit%: Fetch Unit VLIW Cache hit rate; sw/ki: engine handovers per 1000 instructions",
		},
	}
	var sumIPC, sumVLIW float64
	n := 0
	ws := workloads.All()
	jobs := make([]runJob, 0, len(ws))
	for _, w := range ws {
		jobs = append(jobs, runJob{w, core.FeasibleConfig()})
	}
	ms, err := runAll(o, jobs)
	if err != nil {
		return nil, err
	}
	for wi, w := range ws {
		m := ms[wi]
		s := &m.Stats
		t.AddRow(w.Name, s.IPC(),
			s.Sched.MaxRenames[0], s.Sched.MaxRenames[1], s.Sched.MaxRenames[2],
			s.Sched.MaxRenames[3],
			s.Engine.MaxLoadList, s.Engine.MaxStoreList, s.Engine.MaxCkptList,
			s.AliasingExceptions,
			fmt.Sprintf("%.2f%%", 100*s.VLIWCycleFraction()),
			fmt.Sprintf("%.1f%%", 100*s.SlotUtilisation()),
			fmt.Sprintf("%.1f%%", 100*s.VCacheHitRate()),
			fmt.Sprintf("%.2f", s.SwitchRate()))
		sumIPC += s.IPC()
		sumVLIW += s.VLIWCycleFraction()
		n++
		o.note("table3 %s done", w.Name)
	}
	t.AddRow("Average", sumIPC/float64(n), "", "", "", "", "", "", "", "",
		fmt.Sprintf("%.2f%%", 100*sumVLIW/float64(n)), "", "", "")
	return t, nil
}

// fig9DTSVLIWConfig is the DTSVLIW side of Figure 9: the DIF paper's
// parameters (2 branch + 4 homogeneous units, 6x6 blocks, 512x2-block
// VLIW Cache = 216 KB, 4-KB instruction and data caches with 2-cycle
// miss).
func fig9DTSVLIWConfig() core.Config {
	cfg := core.IdealConfig(6, 6)
	cfg.FUs = []isa.FUClass{
		isa.FUAny, isa.FUAny, isa.FUAny, isa.FUAny, isa.FUBranch, isa.FUBranch,
	}
	cfg.ICache = mem.CacheConfig{SizeBytes: 4 * 1024, LineBytes: 128, Assoc: 2, MissPenalty: 2}
	cfg.DCache = mem.CacheConfig{SizeBytes: 4 * 1024, LineBytes: 32, Assoc: 1, MissPenalty: 2}
	cfg.VCacheKB = 216
	cfg.VCacheAssoc = 2
	return cfg
}

// Fig9 reproduces Figure 9: DTSVLIW versus DIF under the DIF paper's
// machine parameters.
func Fig9(o Options) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Figure 9: DTSVLIW vs DIF (6x6 blocks, 2 branch + 4 homogeneous units)",
		Columns: []string{"benchmark", "DTSVLIW", "DIF"},
		Notes: []string{
			"DTSVLIW VLIW Cache 216 KB; DIF cache 512x2 blocks (463 KB with exit maps)",
		},
	}
	ws := workloads.All()
	type pair struct{ dts, dif float64 }
	res, err := mapPar(o.workers(), ws, func(w *workloads.Workload) (pair, error) {
		m, err := RunOne(w, fig9DTSVLIWConfig(), o)
		if err != nil {
			return pair{}, err
		}
		dcfg := dif.Figure9Config()
		dcfg.MaxInstrs = o.MaxInstrs
		st, err := w.NewState(dcfg.NWin)
		if err != nil {
			return pair{}, err
		}
		dm, err := dif.New(dcfg, st)
		if err != nil {
			return pair{}, err
		}
		if err := dm.Run(); err != nil {
			return pair{}, fmt.Errorf("dif %s: %w", w.Name, err)
		}
		if st.Halted {
			if err := w.Validate(st); err != nil {
				return pair{}, err
			}
		}
		return pair{m.Stats.IPC(), dm.Stats.IPC()}, nil
	})
	if err != nil {
		return nil, err
	}
	var sumD, sumF float64
	for wi, w := range ws {
		t.AddRow(w.Name, res[wi].dts, res[wi].dif)
		sumD += res[wi].dts
		sumF += res[wi].dif
		o.note("fig9 %s: DTSVLIW %.2f DIF %.2f", w.Name, res[wi].dts, res[wi].dif)
	}
	n := len(ws)
	t.AddRow("Average", sumD/float64(n), sumF/float64(n))
	return t, nil
}

// Table2 reproduces Table 2: the benchmark programs and the inputs their
// synthetic analogues stand in for.
func Table2(o Options) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Table 2: benchmark programs",
		Columns: []string{"benchmark", "paper input", "synthetic analogue"},
	}
	for _, w := range workloads.All() {
		t.AddRow(w.Name, w.Input, w.Description)
	}
	return t, nil
}

// Table1 reports the fixed simulation parameters (paper Table 1) as
// configured in this reproduction.
func Table1(o Options) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Table 1: fixed parameters",
		Columns: []string{"parameter", "value"},
	}
	t.AddRow("Primary Processor", "4-stage pipeline, no branch prediction")
	t.AddRow("not-taken branch bubble", "3 cycles")
	t.AddRow("load-use bubble", "1 cycle")
	t.AddRow("decoded instruction size", "6 bytes")
	t.AddRow("instruction latency", "1 cycle")
	t.AddRow("VLIW Engine lists", "unlimited (maxima measured)")
	t.AddRow("renaming registers", "unlimited (maxima measured)")
	t.AddRow("scheduler pipe", "insert/split 1, move-up block-size, save 1 stages")
	return t, nil
}

// Runner maps experiment names to runners.
var Runner = map[string]func(Options) (*stats.Table, error){
	"table1":      Table1,
	"table2":      Table2,
	"table3":      Table3,
	"fig5":        Fig5,
	"fig6":        Fig6,
	"fig7":        Fig7,
	"fig8":        Fig8,
	"fig9":        Fig9,
	"ext":         Extensions,
	"profile":     Profile,
	"schedgap":    SchedGap,
	"staticbound": StaticBound,
}

// Order lists experiments in the paper's order, ending with this
// reproduction's extension study and the telemetry profile summary.
var Order = []string{"table1", "table2", "fig5", "fig6", "fig7", "fig8", "table3", "fig9", "ext", "profile"}

// Extensions measures the paper's §5 deferred designs (implemented in this
// reproduction) against the baseline ideal 8x8 machine: next-long-
// instruction prediction, the §3.11 data-store-list scheme, and multicycle
// load latencies from the companion study.
func Extensions(o Options) (*stats.Table, error) {
	t := &stats.Table{
		Title: "Extensions (paper §5): IPC on the ideal 8x8 machine",
		Columns: []string{"benchmark", "baseline", "+exit-pred", "store-list",
			"loads=2cy", "loads=4cy", "pred-acc", "pred-hits", "pred-misses"},
		Notes: []string{
			"exit-pred: last-target next-long-instruction predictor",
			"pred-acc/hits/misses: the predictor's outcomes in the +exit-pred run",
			"store-list: §3.11 alternative exception handling (timing-neutral without aliasing)",
			"loads=Ncy: multicycle extension (companion HPCN'99 study)",
		},
	}
	variants := []func(*core.Config){
		func(c *core.Config) {},
		func(c *core.Config) { c.ExitPrediction = true },
		func(c *core.Config) { c.StoreScheme = vliw.SchemeStoreList },
		func(c *core.Config) { c.LoadLatency = 2 },
		func(c *core.Config) { c.LoadLatency = 4 },
	}
	ws := workloads.All()
	jobs := make([]runJob, 0, len(ws)*len(variants))
	for _, w := range ws {
		for _, v := range variants {
			cfg := core.IdealConfig(8, 8)
			v(&cfg)
			jobs = append(jobs, runJob{w, cfg})
		}
	}
	ms, err := runAll(o, jobs)
	if err != nil {
		return nil, err
	}
	for wi, w := range ws {
		row := []interface{}{w.Name}
		for i := range variants {
			m := ms[wi*len(variants)+i]
			row = append(row, m.Stats.IPC())
			o.note("ext %s variant %d: IPC %.2f", w.Name, i, m.Stats.IPC())
		}
		// Exit-predictor outcomes from the +exit-pred run (variant 1),
		// previously measured but dropped from the table.
		ps := &ms[wi*len(variants)+1].Stats
		row = append(row,
			fmt.Sprintf("%.1f%%", 100*ps.ExitPredAccuracy()),
			ps.ExitPredHits, ps.ExitPredMisses)
		t.AddRow(row...)
	}
	return t, nil
}

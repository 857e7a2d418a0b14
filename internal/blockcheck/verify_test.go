package blockcheck_test

import (
	"testing"

	"dtsvliw/internal/blockcheck"
	"dtsvliw/internal/core"
	"dtsvliw/internal/oracle"
	"dtsvliw/internal/progen"
	"dtsvliw/internal/sched"
	"dtsvliw/internal/vliw"
	"dtsvliw/internal/workloads"
)

// capture holds everything needed to re-verify a block after the run.
type capture struct {
	blocks []*sched.Block
	scfg   sched.Config
	nwin   int
}

// runWorkload executes workload name under cfg with save-time
// verification on, capturing every saved block. The machine itself fails
// the run on the first illegal block, so a clean return already means
// every block verified.
func runWorkload(t *testing.T, name string, cfg core.Config, maxInstrs uint64) (*core.Machine, *capture) {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	st, err := w.NewState(cfg.NWin)
	if err != nil {
		t.Fatal(err)
	}
	cfg.VerifyBlocks = true
	cfg.MaxCycles = 1 << 40
	cfg.MaxInstrs = maxInstrs
	m, err := core.NewMachine(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	cap := &capture{scfg: m.Scheduler().Config(), nwin: cfg.NWin}
	m.BlockHook = func(b *sched.Block) { cap.blocks = append(cap.blocks, b) }
	if err := m.Run(); err != nil {
		t.Fatalf("%s under %dx%d: %v", name, cfg.Width, cfg.Height, err)
	}
	if m.Stats.BlocksVerified == 0 || m.Stats.BlocksVerified != m.Stats.BlocksSaved {
		t.Fatalf("%s: %d blocks saved, %d verified", name, m.Stats.BlocksSaved, m.Stats.BlocksVerified)
	}
	return m, cap
}

// verifyConfigs are the machine variants the clean-verification tests
// sweep: every orthogonal mechanism that changes block shape.
func verifyConfigs() []oracle.NamedConfig {
	multi := core.IdealConfig(8, 8)
	multi.LoadLatency, multi.FPLatency, multi.FPDivLatency = 2, 2, 8
	nofwd := core.IdealConfig(8, 8)
	nofwd.NoSourceForwarding = true
	return []oracle.NamedConfig{
		{Name: "ideal-8x8", Cfg: core.IdealConfig(8, 8)},
		{Name: "ideal-4x4", Cfg: core.IdealConfig(4, 4)},
		{Name: "feasible", Cfg: core.FeasibleConfig()},
		{Name: "multicycle", Cfg: multi},
		{Name: "nofwd", Cfg: nofwd},
	}
}

// TestWorkloadsVerifyClean proves that every block the real scheduler
// saves, across all example workloads and configuration variants, passes
// static legality verification.
func TestWorkloadsVerifyClean(t *testing.T) {
	max := uint64(40_000)
	if testing.Short() {
		max = 10_000
	}
	for _, nc := range verifyConfigs() {
		nc := nc
		t.Run(nc.Name, func(t *testing.T) {
			t.Parallel()
			for _, name := range workloads.Names() {
				m, _ := runWorkload(t, name, nc.Cfg, max)
				t.Logf("%s: %d blocks verified", name, m.Stats.BlocksVerified)
			}
		})
	}
}

// TestProgenVerifyClean repeats the clean-verification property over
// generated programs: every progen shape through every variant.
func TestProgenVerifyClean(t *testing.T) {
	perShape := 6
	if testing.Short() {
		perShape = 2
	}
	configs := verifyConfigs()
	for _, shape := range progen.Shapes() {
		shape := shape
		t.Run(shape.String(), func(t *testing.T) {
			t.Parallel()
			for i := 0; i < perShape; i++ {
				seed := int64(1000*i) + 7
				src := progen.Generate(progen.ShapeParams(shape, seed))
				cfg := configs[i%len(configs)].Cfg
				cfg.VerifyBlocks = true
				res, err := oracle.RunDiff(src, cfg)
				if err != nil {
					t.Fatalf("seed %d config %s: %v", seed, configs[i%len(configs)].Name, err)
				}
				if res.Instret == 0 {
					t.Fatalf("seed %d: reference retired nothing", seed)
				}
			}
		})
	}
}

// --- tamper tests: corrupt a verified block and assert the exact kind ---

// capturedBlocks runs a block-rich workload once and returns its blocks.
func capturedBlocks(t *testing.T, cfg core.Config) *capture {
	t.Helper()
	_, cap := runWorkload(t, "gcc", cfg, 40_000)
	if len(cap.blocks) == 0 {
		t.Fatal("workload saved no blocks")
	}
	return cap
}

// reverify checks the tampered block and asserts the expected kind is
// reported. Secondary violation kinds are tolerated: corruption rarely
// breaks exactly one invariant.
func wantKind(t *testing.T, cap *capture, b *sched.Block, k blockcheck.Kind) *blockcheck.Report {
	t.Helper()
	rep := blockcheck.Verify(b, nil, cap.scfg)
	if !rep.Has(k) {
		t.Fatalf("tampered block: want %v among violations, got %v\n%s", k, rep.Kinds(), rep)
	}
	return rep
}

// findSlot returns the first block and occupied slot satisfying pred.
func findSlot(cap *capture, pred func(*sched.Block, *sched.Slot) bool) (*sched.Block, *sched.Slot) {
	for _, b := range cap.blocks {
		for _, row := range b.LIs {
			for _, s := range row {
				if s != nil && pred(b, s) {
					return b, s
				}
			}
		}
	}
	return nil, nil
}

// capturedFromSource assembles and runs src, capturing every saved block.
func capturedFromSource(t *testing.T, src string, cfg core.Config) *capture {
	t.Helper()
	st, err := oracle.BuildState(src, cfg.NWin)
	if err != nil {
		t.Fatal(err)
	}
	cfg.VerifyBlocks = true
	cfg.MaxCycles = 1 << 30
	cfg.MaxInstrs = 30_000
	m, err := core.NewMachine(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	c := &capture{scfg: m.Scheduler().Config(), nwin: cfg.NWin}
	m.BlockHook = func(b *sched.Block) { c.blocks = append(c.blocks, b) }
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return c
}

// crossPred matches a memory slot whose cross bit is load-bearing: an
// older-order, store-involved access executes in a later long instruction,
// so clearing the bit would blind the engine's aliasing detection.
func crossPred(b *sched.Block, s *sched.Slot) bool {
	if !s.IsMem || !s.Cross {
		return false
	}
	var sli = -1
	for li, row := range b.LIs {
		for _, o := range row {
			if o == s {
				sli = li
			}
		}
	}
	for li, row := range b.LIs {
		if li <= sli {
			continue
		}
		for _, o := range row {
			if o != nil && o.IsMem && o.Order < s.Order && (o.IsStore || s.IsStore) {
				return true
			}
		}
	}
	return false
}

func TestTamperDetection(t *testing.T) {
	cap := capturedBlocks(t, core.IdealConfig(8, 8))

	t.Run("clean", func(t *testing.T) {
		for _, b := range cap.blocks {
			low := vliw.Lower(b, cap.nwin)
			if rep := blockcheck.Verify(b, low, cap.scfg); !rep.Ok() {
				t.Fatalf("untampered block %#08x fails:\n%s", b.Tag, rep)
			}
		}
	})

	t.Run("tag", func(t *testing.T) {
		b, s := findSlot(cap, func(_ *sched.Block, s *sched.Slot) bool { return true })
		s.Tag++
		defer func() { s.Tag-- }()
		wantKind(t, cap, b, blockcheck.KindTag)
	})

	t.Run("geometry", func(t *testing.T) {
		b := cap.blocks[0]
		b.NBA.Line++
		defer func() { b.NBA.Line-- }()
		wantKind(t, cap, b, blockcheck.KindGeometry)
	})

	t.Run("resource", func(t *testing.T) {
		b, s := findSlot(cap, func(_ *sched.Block, s *sched.Slot) bool { return !s.IsCopy })
		s.Lat += 3
		defer func() { s.Lat -= 3 }()
		wantKind(t, cap, b, blockcheck.KindResource)
	})

	t.Run("rename-no-copy", func(t *testing.T) {
		b, s := findSlot(cap, func(_ *sched.Block, s *sched.Slot) bool {
			return s.IsCopy && len(s.Copies) > 0
		})
		if b == nil {
			t.Skip("no block with a split in this run")
		}
		saved := s.Copies
		s.Copies = nil
		defer func() { s.Copies = saved }()
		wantKind(t, cap, b, blockcheck.KindRenameNoCopy)
	})

	t.Run("mem-order", func(t *testing.T) {
		// Cross bits need reordered memory pairs; the aliasing progen
		// shape manufactures them reliably.
		acap := &capture{}
		shape, _ := progen.ShapeByName("aliasing")
		for seed := int64(1); seed <= 20 && len(acap.blocks) == 0; seed++ {
			src := progen.Generate(progen.ShapeParams(shape, seed))
			c := capturedFromSource(t, src, core.IdealConfig(8, 8))
			if _, s := findSlot(c, crossPred); s != nil {
				acap = c
			}
		}
		b, s := findSlot(acap, crossPred)
		if b == nil {
			t.Fatal("no crossing memory pair across 20 aliasing programs")
		}
		s.Cross = false
		defer func() { s.Cross = true }()
		wantKind(t, acap, b, blockcheck.KindMemOrder)
	})

	t.Run("trace", func(t *testing.T) {
		b := cap.blocks[0]
		saved := b.Trace
		b.Trace = b.Trace[:len(b.Trace)-1]
		defer func() { b.Trace = saved }()
		wantKind(t, cap, b, blockcheck.KindTrace)
	})

	t.Run("trace-missing", func(t *testing.T) {
		b := cap.blocks[0]
		saved := b.Trace
		b.Trace = nil
		defer func() { b.Trace = saved }()
		wantKind(t, cap, b, blockcheck.KindTrace)
	})

	t.Run("lowered", func(t *testing.T) {
		if len(cap.blocks) < 2 {
			t.Skip("need two blocks")
		}
		a, b := cap.blocks[0], cap.blocks[1]
		lowB := vliw.Lower(b, cap.nwin)
		if lowB == nil {
			t.Skip("second block not representable in lowered form")
		}
		rep := blockcheck.Verify(a, lowB, cap.scfg)
		if !rep.Has(blockcheck.KindLowered) {
			t.Fatalf("foreign lowered form accepted: %v", rep.Kinds())
		}
	})
}

// --- fault-injection meta-tests: a buggy scheduler must be caught -------

// faultCase names one deliberate scheduler bug and the violation kind the
// verifier must report for it.
type faultCase struct {
	name  string
	fault sched.Fault
	kind  blockcheck.Kind
	cfg   core.Config
}

func faultCases() []faultCase {
	multi := core.IdealConfig(8, 8)
	multi.LoadLatency, multi.FPLatency, multi.FPDivLatency = 2, 2, 8
	return []faultCase{
		{"drop-copy", sched.FaultDropCopy, blockcheck.KindRenameNoCopy, core.IdealConfig(8, 8)},
		{"drop-rename", sched.FaultDropRename, blockcheck.KindRenameNoProducer, core.IdealConfig(8, 8)},
		{"swap-slots", sched.FaultSwapSlots, blockcheck.KindRAW, core.IdealConfig(8, 8)},
		{"latency-violation", sched.FaultLatencyViolation, blockcheck.KindLatency, multi},
	}
}

// faultSources are programs known to exercise the scheduler paths each
// fault perturbs (splits, movable ALU chains, multicycle loads).
func faultSources() []string {
	var out []string
	for _, shape := range progen.Shapes() {
		for seed := int64(1); seed <= 12; seed++ {
			out = append(out, progen.Generate(progen.ShapeParams(shape, seed)))
		}
	}
	return out
}

// TestFaultInjectionCaught proves each injected scheduler-bug class is
// detected with its expected violation kind on at least one program, and
// that no other verification outcome occurs: every run either saves only
// verified-clean blocks (fault never triggered) or fails with a
// BlockVerifyError carrying the expected kind.
func TestFaultInjectionCaught(t *testing.T) {
	sources := faultSources()
	for _, fc := range faultCases() {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			t.Parallel()
			caught := false
			for i, src := range sources {
				cfg := fc.cfg
				cfg.VerifyBlocks = true
				cfg.MaxInstrs = 30_000
				cfg.Fault = fc.fault
				rep := runFaulted(t, src, cfg)
				if rep == nil {
					continue // fault never triggered on this program
				}
				if !rep.Has(fc.kind) {
					t.Fatalf("source %d: fault %s flagged as %v, want %v\n%s",
						i, fc.name, rep.Kinds(), fc.kind, rep)
				}
				caught = true
			}
			if !caught {
				t.Fatalf("fault %s never triggered across %d programs", fc.name, len(sources))
			}
		})
	}
}

// runFaulted runs src on a faulted machine and returns the verification
// report if the verifier rejected a block (nil if the run stayed clean).
func runFaulted(t *testing.T, src string, cfg core.Config) *blockcheck.Report {
	t.Helper()
	st, err := oracle.BuildState(src, cfg.NWin)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxCycles = 1 << 30
	m, err := core.NewMachine(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run()
	if err == nil {
		return nil
	}
	ve, ok := err.(*core.BlockVerifyError)
	if !ok {
		t.Fatalf("run failed outside verification: %v", err)
	}
	return ve.Report
}

// TestFaultSwitchesOffCleanly re-runs a faulted program with the fault
// switches cleared and asserts verification passes: the detections above
// come from the injected bugs, not from verifier over-strictness.
func TestFaultSwitchesOffCleanly(t *testing.T) {
	for _, shape := range progen.Shapes() {
		src := progen.Generate(progen.ShapeParams(shape, 3))
		cfg := core.IdealConfig(8, 8)
		cfg.LoadLatency, cfg.FPLatency, cfg.FPDivLatency = 2, 2, 8
		cfg.VerifyBlocks = true
		cfg.MaxInstrs = 30_000
		if rep := runFaulted(t, src, cfg); rep != nil {
			t.Fatalf("%s: unfaulted scheduler flagged:\n%s", shape, rep)
		}
	}
}

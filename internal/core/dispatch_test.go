package core

import (
	"reflect"
	"testing"

	"dtsvliw/internal/workloads"
)

// workloadMachine builds a machine for cfg over workload w.
func workloadMachine(t testing.TB, w *workloads.Workload, cfg Config) *Machine {
	t.Helper()
	st, err := w.NewState(cfg.NWin)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func runWorkload(t *testing.T, w *workloads.Workload, cfg Config) *Machine {
	t.Helper()
	m := workloadMachine(t, w, cfg)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBatchedCycleAccounting checks the dispatch loop's batched cycle
// accounting on every benchmark workload, on both the ideal and the
// feasible machine: without telemetry runVLIW sums a block's intra-block
// cycles and charges them once, while a telemetry collector forces one
// addCycles per long instruction. The two runs must produce identical
// Stats (cycles, IPC, cache and predictor counters, the full scheduler
// and engine ledgers).
func TestBatchedCycleAccounting(t *testing.T) {
	configs := map[string]Config{
		"ideal-8x8": IdealConfig(8, 8),
		"feasible":  FeasibleConfig(),
	}
	for name, base := range configs {
		base := base
		t.Run(name, func(t *testing.T) {
			for _, w := range workloads.All() {
				w := w
				t.Run(w.Name, func(t *testing.T) {
					t.Parallel()
					cfg := base
					cfg.MaxCycles = 1 << 40
					cfg.MaxInstrs = 150_000
					batched := runWorkload(t, w, cfg)
					perLI := runWorkload(t, w, telemetryConfig(cfg, 1<<10))
					if !reflect.DeepEqual(perLI.Stats, batched.Stats) {
						t.Fatalf("stats diverge per-LI (telemetry) vs batched accounting:\nper-LI:   %+v\nbatched:  %+v", perLI.Stats, batched.Stats)
					}
				})
			}
		})
	}
}

// TestPooledReuseMatchesFresh runs a sequence of programs on one pooled
// machine: after each Reset the machine must replay a different program
// exactly as a machine built fresh does. The verify leg turns on
// save-time block verification, whose lowered-agreement check proves
// every lowering written into storage recycled from the previous run
// equal to a fresh one. Run under -race in CI.
func TestPooledReuseMatchesFresh(t *testing.T) {
	verify := FeasibleConfig()
	verify.VerifyBlocks = true
	for _, leg := range []struct {
		name string
		cfg  Config
	}{
		{"feasible", FeasibleConfig()},
		{"feasible-verify", verify},
	} {
		t.Run(leg.name, func(t *testing.T) {
			pool := NewMachinePool()
			cfg := leg.cfg
			cfg.MaxCycles = 1 << 40
			cfg.MaxInstrs = 100_000
			names := []string{"compress", "xlisp", "compress", "go", "compress"}
			for i, name := range names {
				w, ok := workloads.ByName(name)
				if !ok {
					t.Fatal(name)
				}
				ctx, err := pool.Get(cfg)
				if err != nil {
					t.Fatal(err)
				}
				p, err := w.Program()
				if err != nil {
					t.Fatal(err)
				}
				ctx.State().LoadProgram(p)
				m, err := ctx.Prepare()
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Run(); err != nil {
					t.Fatalf("run %d (%s): %v", i, name, err)
				}
				if cfg.VerifyBlocks && m.Stats.BlocksVerified != m.Stats.BlocksSaved {
					t.Fatalf("run %d (%s): verified %d of %d saved blocks",
						i, name, m.Stats.BlocksVerified, m.Stats.BlocksSaved)
				}
				// Fresh-machine cross-check: reuse must not perturb a single
				// counter.
				fresh := runWorkload(t, w, cfg)
				if !reflect.DeepEqual(m.Stats, fresh.Stats) {
					t.Fatalf("run %d (%s): pooled stats diverge from fresh machine:\npooled: %+v\nfresh:  %+v",
						i, name, m.Stats, fresh.Stats)
				}
				pool.Put(ctx)
			}
			if pool.Hits == 0 {
				t.Fatal("pool never recycled a context; reuse path untested")
			}
		})
	}
}

// BenchmarkMachineRun measures full-workload simulation on the ideal 8x8
// machine and the feasible machine, on pooled contexts so the
// per-iteration cost is the run itself. It reports host ns per simulated
// instruction, so one program can be profiled on either machine with
// -cpuprofile, for example -bench 'MachineRun/ideal/xlisp'.
func BenchmarkMachineRun(b *testing.B) {
	machines := []struct {
		name string
		cfg  Config
	}{
		{"ideal", IdealConfig(8, 8)},
		{"feasible", FeasibleConfig()},
	}
	for _, mc := range machines {
		for _, w := range workloads.All() {
			b.Run(mc.name+"/"+w.Name, func(b *testing.B) {
				p, err := w.Program()
				if err != nil {
					b.Fatal(err)
				}
				cfg := mc.cfg
				cfg.MaxCycles = 1 << 40
				pool := NewMachinePool()
				var instrs uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ctx, err := pool.Get(cfg)
					if err != nil {
						b.Fatal(err)
					}
					ctx.State().LoadProgram(p)
					m, err := ctx.Prepare()
					if err != nil {
						b.Fatal(err)
					}
					if err := m.Run(); err != nil {
						b.Fatal(err)
					}
					instrs += m.Stats.Retired
					pool.Put(ctx)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
			})
		}
	}
}

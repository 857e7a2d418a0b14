package core

import (
	"reflect"
	"testing"

	"dtsvliw/internal/workloads"
)

// chainStripped returns s with the chain dispatch counters cleared, the
// only Stats fields allowed to differ between a chained and a -nochain
// run (DESIGN.md §16: chaining is a dispatch mechanism, not architecture).
func chainStripped(s Stats) Stats {
	s.VCacheChainHits, s.VCacheChainLinks, s.VCacheChainUnlinks = 0, 0, 0
	return s
}

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

// TestChainLedgerIdentity checks the architectural-invisibility contract
// on every benchmark workload: a chained run and a -nochain run produce
// byte-identical Stats (cycles, IPC, cache and predictor counters, the
// full scheduler and engine ledgers) once the chain dispatch counters are
// stripped, on both the ideal and the feasible machine. A third, chained
// run with a telemetry collector attached proves the dispatch loop's
// batched cycle accounting: telemetry forces one addCycles per long
// instruction, and the per-LI totals must equal the batched ones.
func TestChainLedgerIdentity(t *testing.T) {
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
					chained := runWorkload(t, w, cfg)
					nc := cfg
					nc.NoChain = true
					unchained := runWorkload(t, w, nc)
					perLI := runWorkload(t, w, telemetryConfig(cfg, 1<<10))

					if unchained.Stats.VCacheChainHits != 0 || unchained.Stats.VCacheChainLinks != 0 {
						t.Fatal("nochain run recorded chain activity")
					}
					if chained.Stats.VCacheChainHits == 0 {
						t.Fatal("chained run resolved no transition through a link; contract untested")
					}
					got, want := chainStripped(chained.Stats), chainStripped(unchained.Stats)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("stats diverge chained vs nochain:\nchained:  %+v\nnochain:  %+v", got, want)
					}
					if got := chainStripped(perLI.Stats); !reflect.DeepEqual(got, want) {
						t.Fatalf("stats diverge per-LI (telemetry) vs batched accounting:\nper-LI:   %+v\nbatched:  %+v", got, want)
					}
				})
			}
		})
	}
}

// TestChainTelemetryLedgerIdentity repeats the identity check on the
// telemetry side: the per-block cycle ledger (profiles) must be identical
// chained vs -nochain. Raw event streams are NOT compared — chain
// link/unlink events exist only in chained runs by design.
func TestChainTelemetryLedgerIdentity(t *testing.T) {
	for _, w := range workloads.All()[:3] {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			cfg := telemetryConfig(IdealConfig(8, 8), 1<<16)
			cfg.MaxCycles = 1 << 40
			cfg.MaxInstrs = 100_000
			chained := runWorkload(t, w, cfg)
			nc := cfg
			nc.NoChain = true
			unchained := runWorkload(t, w, nc)

			cp, up := chained.Telemetry().Profiles(), unchained.Telemetry().Profiles()
			if !reflect.DeepEqual(cp, up) {
				t.Fatalf("per-block profiles diverge chained vs nochain (%d vs %d blocks)", len(cp), len(up))
			}
			if c, u := chained.Telemetry().TotalBlockCycles(), unchained.Telemetry().TotalBlockCycles(); c != u {
				t.Fatalf("cycle ledgers diverge: %d chained vs %d nochain", c, u)
			}
		})
	}
}

// TestChainPoolReuse exercises the stale-link hazard across machine
// reuse: a pooled machine that chained heavily on one program must, after
// Reset, replay a different program with no stale-pointer execution —
// results must match machines built fresh. The verify leg turns on
// save-time block verification, whose lowered-agreement check proves
// every lowering written into storage recycled from the previous run
// equal to a fresh one. Run under -race in CI.
func TestChainPoolReuse(t *testing.T) {
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
				// counter, chained dispatch included.
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
// machine and the feasible machine, chained (default) and -nochain, on
// pooled contexts so the per-iteration cost is the run itself. It
// reports host ns per simulated instruction, so one program can be
// profiled on either machine with -cpuprofile, for example
// -bench 'MachineRun/ideal/xlisp/chained'.
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
			for _, nochain := range []bool{false, true} {
				name := mc.name + "/" + w.Name + "/chained"
				if nochain {
					name = mc.name + "/" + w.Name + "/nochain"
				}
				b.Run(name, func(b *testing.B) {
					p, err := w.Program()
					if err != nil {
						b.Fatal(err)
					}
					cfg := mc.cfg
					cfg.NoChain = nochain
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
}

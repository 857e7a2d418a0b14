// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark simulates a bounded slice of the relevant
// workloads under the experiment's machine configuration and reports IPC
// (the paper's performance index) as a custom metric, so
//
//	go test -bench=Fig5 -benchmem
//
// reproduces the corresponding series. cmd/experiments runs the same
// sweeps to completion and prints the full tables.
package dtsvliw

import (
	"fmt"
	"testing"

	"dtsvliw/internal/core"
	"dtsvliw/internal/dif"
	"dtsvliw/internal/experiments"
	"dtsvliw/internal/workloads"
)

// benchInstrs bounds the sequential instructions simulated per iteration.
const benchInstrs = 60_000

func benchRun(b *testing.B, w *workloads.Workload, cfg core.Config) {
	b.Helper()
	cfg.MaxInstrs = benchInstrs
	cfg.MaxCycles = 1 << 60
	var ipc float64
	for i := 0; i < b.N; i++ {
		st, err := w.NewState(cfg.NWin)
		if err != nil {
			b.Fatal(err)
		}
		m, err := core.NewMachine(cfg, st)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		ipc = m.Stats.IPC()
		b.SetBytes(int64(m.Stats.Retired))
	}
	b.ReportMetric(ipc, "IPC")
}

// BenchmarkFig5 regenerates Figure 5: IPC per block geometry.
func BenchmarkFig5(b *testing.B) {
	for _, g := range experiments.Fig5Geometries {
		for _, w := range workloads.All() {
			b.Run(fmt.Sprintf("%dx%d/%s", g[0], g[1], w.Name), func(b *testing.B) {
				benchRun(b, w, core.IdealConfig(g[0], g[1]))
			})
		}
	}
}

// BenchmarkFig6 regenerates Figure 6: IPC per VLIW Cache size.
func BenchmarkFig6(b *testing.B) {
	for _, size := range experiments.Fig6Sizes {
		for _, w := range workloads.All() {
			b.Run(fmt.Sprintf("%dKB/%s", size, w.Name), func(b *testing.B) {
				cfg := core.IdealConfig(8, 8)
				cfg.VCacheKB = size
				benchRun(b, w, cfg)
			})
		}
	}
}

// BenchmarkFig7 regenerates Figure 7: IPC per VLIW Cache associativity.
func BenchmarkFig7(b *testing.B) {
	for _, size := range experiments.Fig7Sizes {
		for _, assoc := range experiments.Fig7Assocs {
			for _, w := range workloads.All() {
				b.Run(fmt.Sprintf("%dKB/%dway/%s", size, assoc, w.Name), func(b *testing.B) {
					cfg := core.IdealConfig(8, 8)
					cfg.VCacheKB = size
					cfg.VCacheAssoc = assoc
					benchRun(b, w, cfg)
				})
			}
		}
	}
}

// BenchmarkFig8Table3 regenerates Figure 8 / Table 3: the feasible
// machine on every benchmark.
func BenchmarkFig8Table3(b *testing.B) {
	for _, w := range workloads.All() {
		b.Run(w.Name, func(b *testing.B) {
			benchRun(b, w, core.FeasibleConfig())
		})
	}
}

// BenchmarkFig9 regenerates Figure 9: DTSVLIW versus DIF under the DIF
// paper's parameters.
func BenchmarkFig9(b *testing.B) {
	for _, w := range workloads.All() {
		b.Run("DTSVLIW/"+w.Name, func(b *testing.B) {
			benchRun(b, w, experiments.Fig9DTSVLIWConfig())
		})
		b.Run("DIF/"+w.Name, func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				st, err := w.NewState(dif.NWin)
				if err != nil {
					b.Fatal(err)
				}
				m := dif.New(st, benchInstrs)
				if err := m.Run(); err != nil {
					b.Fatal(err)
				}
				ipc = m.Stats.IPC()
				b.SetBytes(int64(m.Stats.Retired))
			}
			b.ReportMetric(ipc, "IPC")
		})
	}
}

// BenchmarkSimulatorSpeed measures raw simulation throughput
// (instructions simulated per second shows up as MB/s with 1 byte per
// instruction).
func BenchmarkSimulatorSpeed(b *testing.B) {
	w, _ := workloads.ByName("compress")
	b.Run("dtsvliw", func(b *testing.B) {
		benchRun(b, w, core.IdealConfig(8, 8))
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := w.NewState(16)
			if err != nil {
				b.Fatal(err)
			}
			if err := st.Run(1 << 40); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(st.Instret))
		}
	})
}

package experiments

import (
	"fmt"
	"strings"

	"dtsvliw/internal/core"
	"dtsvliw/internal/stats"
	"dtsvliw/internal/workloads"
)

// Profile runs every workload on the feasible machine with telemetry
// enabled and summarises each run's block behaviour: profiled blocks,
// trace events, the hottest block and its cycle share, histogram means,
// and the cycle reconciliation check (per-block cycle totals must equal
// the machine's VLIWCycles exactly). Full per-workload reports come from
// ProfileDumps (cmd/experiments -profile).
func Profile(o Options) (*stats.Table, error) {
	o.Telemetry = true
	t := &stats.Table{
		Title: "Telemetry profile: per-workload block behaviour (feasible machine)",
		Columns: []string{"benchmark", "blocks", "events", "dropped", "hot-block",
			"hot-cyc%", "blocklen-mean", "vliwrun-mean", "resid-mean", "recon"},
		Notes: []string{
			"hot-block: block with the most VLIW cycles attributed; hot-cyc%: its share of VLIW cycles",
			"means: block length (LIs), VLIW-mode run length (cycles), scheduler-list residency (inserts)",
			"recon: per-block cycle totals vs Stats.VLIWCycles (must be ok, exact)",
		},
	}
	ms, err := grid(o, core.FeasibleConfig())
	if err != nil {
		return nil, err
	}
	for wi, w := range workloads.All() {
		m := ms[wi][0]
		tel := m.Telemetry()
		if tel == nil {
			return nil, fmt.Errorf("profile %s: machine has no telemetry collector", w.Name)
		}
		profs := tel.Profiles()
		hot, hotPct := "-", 0.0
		if len(profs) > 0 && m.Stats.VLIWCycles > 0 {
			hot = fmt.Sprintf("%#x", profs[0].Tag)
			hotPct = 100 * float64(profs[0].Cycles) / float64(m.Stats.VLIWCycles)
		}
		recon := "ok"
		if got := tel.TotalBlockCycles() + tel.OrphanCycles(); got != m.Stats.VLIWCycles {
			recon = fmt.Sprintf("MISMATCH %d!=%d", got, m.Stats.VLIWCycles)
		}
		t.AddRow(w.Name, len(profs), tel.Recorded(), tel.Dropped(), hot,
			fmt.Sprintf("%.1f%%", hotPct),
			tel.BlockLen.Mean(), tel.VLIWRun.Mean(), tel.Residency.Mean(), recon)
		o.note("profile %s: %d blocks, %d events", w.Name, len(profs), tel.Recorded())
	}
	return t, nil
}

// ProfileDumps runs every workload on the feasible machine with
// telemetry enabled and returns the full per-workload hot-block and
// histogram reports (cmd/experiments -profile prints this alongside the
// tables).
func ProfileDumps(o Options, topN int) (string, error) {
	o.Telemetry = true
	ms, err := grid(o, core.FeasibleConfig())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for wi, w := range workloads.All() {
		tel := ms[wi][0].Telemetry()
		if tel == nil {
			return "", fmt.Errorf("profile %s: machine has no telemetry collector", w.Name)
		}
		fmt.Fprintf(&b, "=== %s ===\n", w.Name)
		fmt.Fprintf(&b, "%s\n", tel.Summary())
		b.WriteString(tel.ProfileReport(topN))
		b.WriteString(tel.HistogramReport())
		b.WriteByte('\n')
	}
	return b.String(), nil
}

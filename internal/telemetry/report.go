package telemetry

import (
	"fmt"
	"strings"
)

// ProfileReport renders the hot-block table: the topN blocks by cycles
// resided, with dynamic behaviour, static geometry, the per-column
// slot-occupancy breakdown and each block's exit-PC histogram (top 4
// exits). Output is deterministic.
func (c *Collector) ProfileReport(topN int) string {
	profs := c.Profiles()
	total := c.TotalBlockCycles() + c.orphan
	var b strings.Builder
	fmt.Fprintf(&b, "hot blocks (%d profiled, top %d by cycles; %d VLIW cycles total):\n",
		len(profs), min(topN, len(profs)), total)
	fmt.Fprintf(&b, "  %-10s %10s %6s %12s %12s %8s %8s %6s %9s %9s\n",
		"block", "cycles", "cyc%", "instrs", "LIs-exec", "entries", "exits", "lis", "stat-util", "dyn-util")
	shown := 0
	for _, p := range profs {
		if shown >= topN {
			break
		}
		shown++
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(p.Cycles) / float64(total)
		}
		dynUtil := 0.0
		if ops := p.OpsCommitted + p.OpsAnnulled; ops > 0 && len(p.ColOcc) > 0 && p.LIsExecuted > 0 {
			dynUtil = float64(ops) / float64(p.LIsExecuted*uint64(len(p.ColOcc)))
		}
		fmt.Fprintf(&b, "  %-10s %10d %5.1f%% %12d %12d %8d %8d %6d %8.1f%% %8.1f%%\n",
			fmt.Sprintf("%#x", p.Tag), p.Cycles, pct, p.Instrs, p.LIsExecuted,
			p.Entries, p.TraceExits, p.NumLIs,
			100*p.StaticUtilisation(), 100*dynUtil)
		if len(p.ColOcc) > 0 {
			fmt.Fprintf(&b, "%14s", "cols:")
			for _, occ := range p.ColOcc {
				fmt.Fprintf(&b, " %d", occ)
			}
			fmt.Fprintf(&b, " /%d\n", p.NumLIs)
		}
		exits := p.ExitPCs()
		if len(exits) > 0 {
			fmt.Fprintf(&b, "%14s", "exits:")
			for i, x := range exits {
				if i == 4 {
					fmt.Fprintf(&b, " +%d more", len(exits)-4)
					break
				}
				fmt.Fprintf(&b, " %#x×%d", x.PC, x.Count)
			}
			b.WriteByte('\n')
		}
	}
	if c.orphan > 0 {
		fmt.Fprintf(&b, "  WARNING: %d orphan VLIW cycles (no current block)\n", c.orphan)
	}
	return b.String()
}

// HistogramReport renders the three distribution histograms.
func (c *Collector) HistogramReport() string {
	var b strings.Builder
	b.WriteString(c.BlockLen.Render("block length (long instructions)", 40))
	b.WriteString(c.VLIWRun.Render("VLIW-mode run length (cycles)", 40))
	b.WriteString(c.Residency.Render("scheduler-list residency (instructions inserted)", 40))
	return b.String()
}

// Summary renders a one-paragraph collection summary (event counts and
// ring status).
func (c *Collector) Summary() string {
	return fmt.Sprintf("telemetry: %d events recorded (%d retained, %d dropped), %d blocks profiled, %d VLIW cycles attributed, %d orphan",
		c.Recorded(), uint64(len(c.Events())), c.Dropped(), len(c.profiles), c.TotalBlockCycles(), c.orphan)
}

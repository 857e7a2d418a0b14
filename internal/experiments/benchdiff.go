package experiments

import (
	"fmt"
	"strings"
)

// This file renders and gates the machine-row deltas of the overhead
// gates (bench.go): each delta pairs one workload × configuration
// measured with instrumentation off ("old") and on ("new") in one
// process.

// BenchDelta is one machine row measured off and on.
type BenchDelta struct {
	Name, Config         string
	OldNs, NewNs         float64
	OldAllocs, NewAllocs float64
	// NsPct/AllocsPct are the relative changes in percent; positive means
	// the "new" side is slower / allocates more.
	NsPct, AllocsPct float64
}

func (d BenchDelta) label() string {
	return fmt.Sprintf("machine %s/%s", d.Name, d.Config)
}

func pct(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return 100 * (new - old) / old
}

// FormatBenchDiff renders the deltas as an aligned per-entry table of
// ns/instr and allocs/instr changes.
func FormatBenchDiff(deltas []BenchDelta) string {
	var b strings.Builder
	wide := 0
	for _, d := range deltas {
		if n := len(d.label()); n > wide {
			wide = n
		}
	}
	fmt.Fprintf(&b, "%-*s  %21s  %24s\n", wide, "entry", "ns/instr old->new", "allocs/instr old->new")
	for _, d := range deltas {
		fmt.Fprintf(&b, "%-*s  %8.1f -> %8.1f %+6.1f%%  %7.3f -> %7.3f %+6.1f%%\n",
			wide, d.label(), d.OldNs, d.NewNs, d.NsPct, d.OldAllocs, d.NewAllocs, d.AllocsPct)
	}
	return b.String()
}

// GateBenchMean fails if the rows' MEAN ns/instr change exceeds maxPct
// percent. Per-row gating suits regressions that hit one workload (an
// algorithmic change in a path only some programs exercise); a mean gate
// suits a uniform always-on cost like the metrics publisher, whose true
// overhead is far below the per-row noise floor of the short bench
// workloads — individual rows bounce ±3% run to run with the sign
// flipping, while a real publisher cost would shift every row together
// and survive the averaging.
func GateBenchMean(deltas []BenchDelta, maxPct float64) error {
	if len(deltas) == 0 {
		return fmt.Errorf("bench mean gate: no machine rows")
	}
	var sum float64
	for _, d := range deltas {
		sum += d.NsPct
	}
	mean := sum / float64(len(deltas))
	if mean > maxPct {
		return fmt.Errorf("bench mean gate: machine rows average %+.2f%% ns/instr (> %+.1f%%) across %d rows",
			mean, maxPct, len(deltas))
	}
	return nil
}

// GateBenchDiff fails if any row's ns/instr regressed by more than
// maxPct percent.
func GateBenchDiff(deltas []BenchDelta, maxPct float64) error {
	var bad []string
	for _, d := range deltas {
		if d.NsPct > maxPct {
			bad = append(bad, fmt.Sprintf("%s: %.1f -> %.1f ns/instr (%+.1f%% > %+.1f%%)",
				d.label(), d.OldNs, d.NewNs, d.NsPct, maxPct))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("bench gate: %d entr%s regressed:\n  %s",
			len(bad), map[bool]string{true: "y", false: "ies"}[len(bad) == 1],
			strings.Join(bad, "\n  "))
	}
	return nil
}

package bench

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// tiny runs every workload through the full code paths at a size the
// race detector finishes in seconds: a few progen jobs, SPEC runs capped
// at 5k instructions, one set-up, a short calibration kernel.
var tiny = size{jobs: 8, maxInstrs: 5_000, setups: 1, calibIters: 10_000}

// spec is the part of BENCHMARK.json the benchmark must agree with.
type spec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

type specMetric struct{ Name, Unit string }

func loadSpec(t *testing.T) *spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

func run(t *testing.T, workload string, trace bool) *Result {
	t.Helper()
	res, err := Run(Options{Workload: workload, Seed: 7, Seconds: 0.05, Trace: trace, sz: tiny})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Errors)
	}
	return res
}

// metricsMatch requires res to report exactly the metrics of want, each
// with its unit.
func metricsMatch(t *testing.T, res *Result, want []specMetric) map[string]float64 {
	t.Helper()
	got := make(map[string]float64)
	for _, m := range res.Metrics {
		got[m.Name] = m.Value
		found := false
		for _, w := range want {
			if w.Name == m.Name {
				found = true
				if w.Unit != m.Unit {
					t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, m.Unit, w.Unit)
				}
			}
		}
		if !found {
			t.Errorf("metric %s is not in BENCHMARK.json", m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", m.Name, m.Value)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d distinct metrics, BENCHMARK.json lists %d", len(got), len(want))
	}
	return got
}

func TestWorkloadsMatchSpec(t *testing.T) {
	s := loadSpec(t)
	var want, have []string
	for _, w := range s.Workloads {
		want = append(want, w.Name+": "+w.Why)
	}
	for _, w := range Workloads() {
		have = append(have, w.Name+": "+w.Why)
	}
	if strings.Join(want, "\n") != strings.Join(have, "\n") {
		t.Fatalf("BENCHMARK.json workloads:\n%s\nbenchmark runs:\n%s",
			strings.Join(want, "\n"), strings.Join(have, "\n"))
	}
}

// TestUntraced runs every workload twice: the end-to-end metrics are the
// ones BENCHMARK.json declares, and the simulated results repeat exactly.
// Untraced runs share no process-wide state, so workloads run in
// parallel.
func TestUntraced(t *testing.T) {
	s := loadSpec(t)
	for _, w := range Workloads() {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			a, b := run(t, w.Name, false), run(t, w.Name, false)
			ma, mb := metricsMatch(t, a, s.EndToEnd), metricsMatch(t, b, s.EndToEnd)
			for _, name := range []string{"sim_ipc", "sim_mips", "setup_s", "jobs_per_s"} {
				if ma[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, ma[name])
				}
			}
			if ma["sim_ipc"] != mb["sim_ipc"] || a.Digest != b.Digest {
				t.Errorf("simulated results differ across runs: sim_ipc %v vs %v, digest %s vs %s",
					ma["sim_ipc"], mb["sim_ipc"], a.Digest, b.Digest)
			}
		})
	}
}

// TestTraced runs every traced workload (one at a time: the CPU profiler
// is process-wide) and checks the per-layer metrics, the profile folding,
// the replays and the spans.
func TestTraced(t *testing.T) {
	s := loadSpec(t)
	for _, w := range Workloads() {
		t.Run(w.Name, func(t *testing.T) {
			tr := run(t, w.Name, true)
			m := metricsMatch(t, tr, s.PerLayer)
			sum := 0.0
			for _, l := range layers {
				sum += m[l+".self_frac"]
			}
			if math.Abs(sum-1) > 0.01 {
				t.Errorf("layer fractions sum to %v (%v samples)", sum, m["profile.samples"])
			}
			if m["sched.replay_mismatch"] != 0 {
				t.Errorf("sched.replay_mismatch = %v", m["sched.replay_mismatch"])
			}
			if m["sched.insert_ns"] <= 0 || m["span.job.run.ms_p50"] <= 0 {
				t.Errorf("replay or span timings missing: insert %v, job.run %v",
					m["sched.insert_ns"], m["span.job.run.ms_p50"])
			}
			checkSpans(t, tr.Spans)
		})
	}
}

// checkSpans requires every span to be closed and enclosed by its parent.
func checkSpans(t *testing.T, spans []Span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	for _, sp := range spans {
		if sp.EndNS < sp.StartNS {
			t.Fatalf("span %d %s not closed", sp.ID, sp.Name)
		}
		if sp.Parent == 0 {
			continue
		}
		if sp.Parent < 1 || sp.Parent > len(spans) {
			t.Fatalf("span %d %s: parent %d does not exist", sp.ID, sp.Name, sp.Parent)
		}
		p := spans[sp.Parent-1]
		if sp.StartNS < p.StartNS || sp.EndNS > p.EndNS {
			t.Fatalf("span %d %s [%d,%d] escapes parent %s [%d,%d]",
				sp.ID, sp.Name, sp.StartNS, sp.EndNS, p.Name, p.StartNS, p.EndNS)
		}
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		want  string
		stack []frame
	}{
		{"vliw.engine", []frame{{"dtsvliw/internal/vliw.(*Engine).ExecLIInto", "/x/internal/vliw/lowexec.go"}}},
		{"vliw.lower", []frame{{"dtsvliw/internal/vliw.Lower", "/x/internal/vliw/lower.go"}}},
		// A standard-library leaf counts against its simulator caller.
		{"sched", []frame{{"runtime.memmove", ""}, {"dtsvliw/internal/sched.(*Scheduler).flush", ""}}},
		{"runtime.alloc", []frame{{"runtime.mallocgc", ""}, {"dtsvliw/internal/sched.(*Scheduler).Insert", ""}}},
		// A GC assist inside malloc is collector time.
		{"runtime.gc", []frame{{"runtime.gcAssistAlloc", ""}, {"runtime.mallocgc", ""}, {"dtsvliw/internal/asm.Assemble", ""}}},
		{"other", []frame{{"time.Now", ""}, {"dtsvliw/bench.(*suite).timed", ""}}},
		{"other", []frame{{"runtime.mcall", ""}}},
		{"progen", []frame{{"strings.(*Builder).WriteString", ""}, {"dtsvliw/internal/progen.(*gen).stmt", ""}}},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

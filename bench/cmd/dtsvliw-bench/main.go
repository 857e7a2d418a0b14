// Command dtsvliw-bench runs one workload of the repository benchmark and
// prints every metric as "name value unit", then, as its last line, one
// JSON object with the keys correct, attempted, failed and metrics. The
// full result (host header, digest, failures, and in a traced run the
// spans) is also written as JSON under -out, beside the traced run's CPU
// profile.
//
//	dtsvliw-bench --workload spec-ideal --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the traced run,
// which reports the per-layer metrics. The exit status is 1 when any job
// failed and 2 on bad arguments or a failed set-up.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"dtsvliw/bench"
)

func main() {
	var names []string
	for _, w := range bench.Workloads() {
		names = append(names, w.Name)
	}
	workload := flag.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "seed: picks the generated programs and shuffles the job order")
	seconds := flag.Float64("seconds", 15, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for the end-to-end run")
	out := flag.String("out", filepath.Join(".bench_build", "out"), "directory for the JSON result")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	// One simulation goroutine; the second P serves the collector.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	res, err := bench.Run(bench.Options{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtsvliw-bench:", err)
		os.Exit(2)
	}
	if err := writeResult(*out, res); err != nil {
		fmt.Fprintln(os.Stderr, "dtsvliw-bench:", err)
		os.Exit(2)
	}
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "dtsvliw-bench: failed:", e)
	}

	h := res.Host
	fmt.Printf("# workload=%s seed=%d trace=%d go=%s nproc=%d gomaxprocs=%d\n",
		res.Workload, res.Seed, *trace, h.GoVersion, h.NumCPU, h.GOMAXPROCS)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(res.Metrics))
	for _, m := range res.Metrics {
		fmt.Printf("%s %g %s\n", m.Name, m.Value, m.Unit)
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	fmt.Printf("sim_digest %s hex\n", res.Digest)
	fmt.Printf("host_speed %g x\n", res.HostSpeed)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtsvliw-bench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		os.Exit(1)
	}
}

// writeResult writes res as indented JSON to dir, with the traced run's
// CPU profile beside it.
func writeResult(dir string, res *bench.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if res.Trace {
		trace = 1
	}
	name := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", res.Workload, res.Seed, trace))
	if res.Profile != nil {
		if err := os.WriteFile(name+".pprof", res.Profile, 0o644); err != nil {
			return err
		}
	}
	return os.WriteFile(name+".json", append(b, '\n'), 0o644)
}

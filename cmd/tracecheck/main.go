// Command tracecheck validates a Chrome trace-event JSON file (as
// produced by dtsvliw -trace) against the trace-event format rules that
// Perfetto and chrome://tracing rely on: a traceEvents array whose
// entries carry a name, a known phase, pid/tid, a timestamp on timed
// events, and a non-negative duration on complete ("X") events. CI runs
// it on the exported workload trace before uploading the artifact.
//
// Usage:
//
//	tracecheck trace.json
//
// Exit status 0 when the file is valid; 1 with a diagnostic otherwise.
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck trace.json")
		os.Exit(2)
	}
	data, err := os.ReadFile(os.Args[1])
	if err != nil {
		fail("%v", err)
	}
	summary, err := checkTrace(data)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("tracecheck: %s ok (%s)\n", os.Args[1], summary)
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "tracecheck: "+format+"\n", args...)
	os.Exit(1)
}

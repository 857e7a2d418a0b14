package main

import (
	"bytes"
	"strings"
	"testing"

	"dtsvliw/internal/telemetry"
)

// TestCheckLiveTrace validates a trace produced by the real exporter end
// to end: what WriteChromeTrace emits is exactly what checkTrace accepts.
func TestCheckLiveTrace(t *testing.T) {
	var cycle uint64
	c := telemetry.NewCollector(telemetry.Config{}, &cycle)
	c.HandoverToVLIW(0x100)
	cycle = 10
	c.EnterBlock(0x100, 4)
	cycle = 20
	c.ExitBlock(0x100, telemetry.ExitFallthru, 0x140, 10)
	c.EnterBlock(0x140, 2)
	cycle = 30
	c.ExitBlock(0x140, telemetry.ExitFallthru, 0x180, 10)
	c.HandoverToPrimary(0x180)
	cycle = 40
	c.Finish()

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if _, err := checkTrace(buf.Bytes()); err != nil {
		t.Fatalf("checkTrace rejected a live trace: %v\n%s", err, buf.String())
	}
}

// TestCheckRejectsMalformed: each mutation of an otherwise valid trace
// must produce a diagnostic naming the problem.
func TestCheckRejectsMalformed(t *testing.T) {
	const slice = `{"name": "primary", "ph": "X", "ts": 0, "dur": 10, "pid": 1, "tid": 1}`
	wrap := func(events ...string) []byte {
		return []byte(`{"traceEvents": [` + strings.Join(events, ",") + `]}`)
	}
	cases := []struct {
		name, event, wantErr string
	}{
		{"missing name", `{"ph": "i", "ts": 1, "pid": 1, "tid": 3}`, "missing name"},
		{"unknown phase", `{"name": "x", "ph": "Z", "ts": 1, "pid": 1, "tid": 3}`, "unknown phase"},
		{"missing pid/tid", `{"name": "x", "ph": "i", "ts": 1}`, "missing pid/tid"},
		{"negative dur", `{"name": "x", "ph": "X", "ts": 1, "dur": -2, "pid": 1, "tid": 1}`, "dur >= 0"},
		{"bad scope", `{"name": "x", "ph": "i", "ts": 1, "pid": 1, "tid": 3, "s": "q"}`, "bad instant scope"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := checkTrace(wrap(slice, tc.event))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("got error %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
	if _, err := checkTrace(wrap(slice)); err != nil {
		t.Fatalf("baseline trace rejected: %v", err)
	}
	if _, err := checkTrace([]byte(`{"other": 1}`)); err == nil ||
		!strings.Contains(err.Error(), "missing traceEvents") {
		t.Fatalf("got %v, want missing traceEvents", err)
	}
}

package main

import (
	"encoding/json"
	"fmt"
)

type traceFile struct {
	TraceEvents []json.RawMessage `json:"traceEvents"`
}

type traceEvent struct {
	Name  *string  `json:"name"`
	Ph    *string  `json:"ph"`
	Ts    *float64 `json:"ts"`
	Dur   *float64 `json:"dur"`
	Pid   *int     `json:"pid"`
	Tid   *int     `json:"tid"`
	Scope string   `json:"s"`
}

// knownPhases lists the trace-event phase codes the viewers accept.
var knownPhases = map[string]bool{
	"B": true, "E": true, "X": true, "i": true, "I": true,
	"C": true, "b": true, "n": true, "e": true, "s": true, "t": true,
	"f": true, "P": true, "M": true, "N": true, "O": true, "D": true,
	"R": true, "c": true,
}

// checkTrace validates Chrome trace-event JSON and returns a one-line
// summary. It enforces the structural rules the viewers rely on (name,
// known phase, pid/tid, ts on timed events, dur >= 0 on "X").
func checkTrace(data []byte) (string, error) {
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return "", fmt.Errorf("not a trace-event JSON object: %v", err)
	}
	if tf.TraceEvents == nil {
		return "", fmt.Errorf("missing traceEvents array")
	}
	counts := map[string]int{}
	for i, raw := range tf.TraceEvents {
		var e traceEvent
		if err := json.Unmarshal(raw, &e); err != nil {
			return "", fmt.Errorf("traceEvents[%d]: not an object: %v", i, err)
		}
		if e.Name == nil || *e.Name == "" {
			return "", fmt.Errorf("traceEvents[%d]: missing name", i)
		}
		if e.Ph == nil || !knownPhases[*e.Ph] {
			return "", fmt.Errorf("traceEvents[%d] (%s): missing or unknown phase %v", i, *e.Name, e.Ph)
		}
		if e.Pid == nil || e.Tid == nil {
			return "", fmt.Errorf("traceEvents[%d] (%s, ph=%s): missing pid/tid", i, *e.Name, *e.Ph)
		}
		switch *e.Ph {
		case "M":
			// Metadata events are untimed.
		case "X":
			if e.Ts == nil {
				return "", fmt.Errorf("traceEvents[%d] (%s): complete event missing ts", i, *e.Name)
			}
			if e.Dur == nil || *e.Dur < 0 {
				return "", fmt.Errorf("traceEvents[%d] (%s): complete event needs dur >= 0", i, *e.Name)
			}
		case "i", "I":
			if e.Ts == nil {
				return "", fmt.Errorf("traceEvents[%d] (%s): instant event missing ts", i, *e.Name)
			}
			if e.Scope != "" && e.Scope != "g" && e.Scope != "p" && e.Scope != "t" {
				return "", fmt.Errorf("traceEvents[%d] (%s): bad instant scope %q", i, *e.Name, e.Scope)
			}
		default:
			if e.Ts == nil {
				return "", fmt.Errorf("traceEvents[%d] (%s, ph=%s): missing ts", i, *e.Name, *e.Ph)
			}
		}
		counts[*e.Ph]++
	}
	if counts["X"] == 0 {
		return "", fmt.Errorf("no complete (X) slices: the occupancy timeline is empty")
	}
	summary := fmt.Sprintf("%d events", len(tf.TraceEvents))
	for _, ph := range []string{"X", "i", "M"} {
		if counts[ph] > 0 {
			summary += fmt.Sprintf(", %d %s", counts[ph], ph)
		}
	}
	return summary, nil
}

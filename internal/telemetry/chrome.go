package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace-event JSON export (the "JSON Array Format" with a
// traceEvents wrapper object), loadable in Perfetto / chrome://tracing.
// One simulated cycle maps to one microsecond of trace time, so the
// timeline axis reads directly in cycles.

// Trace thread ids (all under one process).
const (
	tidOccupancy = 1 // Primary vs VLIW Engine occupancy slices
	tidBlocks    = 2 // per-block residency slices
	tidEvents    = 3 // instant events (saves, misses, exceptions, ...)
)

type traceEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    uint64         `json:"ts"`
	Dur   *uint64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

func meta(name string, tid int, args map[string]any) traceEvent {
	return traceEvent{Name: name, Ph: "M", Pid: 1, Tid: tid, Args: args}
}

func slice(name string, start, end uint64, tid int, args map[string]any) traceEvent {
	d := end - start
	return traceEvent{Name: name, Ph: "X", Ts: start, Dur: &d, Pid: 1, Tid: tid, Args: args}
}

func instant(name string, ts uint64, args map[string]any) traceEvent {
	return traceEvent{Name: name, Ph: "i", Ts: ts, Pid: 1, Tid: tidEvents, Scope: "t", Args: args}
}

// WriteChromeTrace exports the retained event trace as Chrome
// trace-event JSON. The occupancy thread reconstructs Primary/VLIW
// Engine slices from the handover events; the blocks thread shows each
// block residency; the events thread carries everything else as instant
// markers. If the ring wrapped, reconstruction starts at the first
// retained event (the dropped count is in the process metadata).
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	evs := c.Events()
	out := traceFile{DisplayTimeUnit: "ns"}
	out.TraceEvents = append(out.TraceEvents,
		meta("process_name", tidOccupancy, map[string]any{"name": "dtsvliw"}),
		meta("thread_name", tidOccupancy, map[string]any{"name": "engine occupancy"}),
		meta("thread_name", tidBlocks, map[string]any{"name": "blocks"}),
		meta("thread_name", tidEvents, map[string]any{"name": "events"}),
	)
	if d := c.Dropped(); d > 0 {
		out.TraceEvents = append(out.TraceEvents,
			instant("ring-dropped-events", 0, map[string]any{"dropped": d}))
	}

	var start, end uint64
	if len(evs) > 0 {
		start, end = evs[0].Cycle, evs[len(evs)-1].Cycle
	}

	// Occupancy slices: the machine starts (or, after a wrap, is assumed
	// to resume) in Primary mode at the first retained stamp.
	occStart, inVLIW := start, false
	closeOcc := func(at uint64) {
		name := "primary"
		if inVLIW {
			name = "vliw"
		}
		if at > occStart {
			out.TraceEvents = append(out.TraceEvents, slice(name, occStart, at, tidOccupancy, nil))
		}
		occStart = at
	}

	// Block slices: open at EvBlockEntered, close at the next exit,
	// entry or handover back to the Primary Processor.
	var blkTag uint32
	var blkStart uint64
	blkOpen := false
	closeBlk := func(at uint64) {
		if !blkOpen {
			return
		}
		if at > blkStart {
			out.TraceEvents = append(out.TraceEvents,
				slice(fmt.Sprintf("block %#x", blkTag), blkStart, at, tidBlocks, nil))
		}
		blkOpen = false
	}

	for _, e := range evs {
		switch e.Kind {
		case EvHandoverToVLIW:
			closeOcc(e.Cycle)
			inVLIW = true
			out.TraceEvents = append(out.TraceEvents,
				instant("handover-to-vliw", e.Cycle, map[string]any{"pc": hex(e.Addr)}))
		case EvHandoverToPrim:
			closeOcc(e.Cycle)
			inVLIW = false
			closeBlk(e.Cycle)
			out.TraceEvents = append(out.TraceEvents,
				instant("handover-to-primary", e.Cycle, map[string]any{"pc": hex(e.Addr)}))
		case EvBlockEntered:
			closeBlk(e.Cycle)
			blkTag, blkStart, blkOpen = e.Addr, e.Cycle, true
		case EvBlockExited:
			closeBlk(e.Cycle)
			out.TraceEvents = append(out.TraceEvents,
				instant("block-exited", e.Cycle, map[string]any{
					"block": hex(e.Addr), "nextPC": hex(e.Aux),
					"reason": ExitReason(e.Aux2).String(),
				}))
		case EvBlockSaved:
			out.TraceEvents = append(out.TraceEvents,
				instant("block-saved", e.Cycle, map[string]any{"block": hex(e.Addr), "lis": e.Aux}))
		case EvBlockEvicted:
			out.TraceEvents = append(out.TraceEvents,
				instant("block-evicted", e.Cycle, map[string]any{"block": hex(e.Addr)}))
		case EvBlockInvalidated:
			out.TraceEvents = append(out.TraceEvents,
				instant("block-invalidated", e.Cycle, map[string]any{"block": hex(e.Addr)}))
		case EvSplit:
			out.TraceEvents = append(out.TraceEvents,
				instant("split", e.Cycle, map[string]any{"pc": hex(e.Addr)}))
		case EvAliasing:
			out.TraceEvents = append(out.TraceEvents,
				instant("aliasing-exception", e.Cycle, map[string]any{"block": hex(e.Addr)}))
		case EvException:
			out.TraceEvents = append(out.TraceEvents,
				instant("exception", e.Cycle, map[string]any{"block": hex(e.Addr)}))
		case EvExitPredHit:
			out.TraceEvents = append(out.TraceEvents,
				instant("exit-pred-hit", e.Cycle, map[string]any{"branch": hex(e.Addr), "pc": hex(e.Aux)}))
		case EvExitPredMiss:
			out.TraceEvents = append(out.TraceEvents,
				instant("exit-pred-miss", e.Cycle, map[string]any{"branch": hex(e.Addr), "pc": hex(e.Aux)}))
		case EvICacheMiss:
			out.TraceEvents = append(out.TraceEvents,
				instant("icache-miss", e.Cycle, map[string]any{"addr": hex(e.Addr)}))
		case EvDCacheMiss:
			out.TraceEvents = append(out.TraceEvents,
				instant("dcache-miss", e.Cycle, map[string]any{"addr": hex(e.Addr)}))
		case EvVCacheMiss:
			out.TraceEvents = append(out.TraceEvents,
				instant("vcache-miss", e.Cycle, map[string]any{"addr": hex(e.Addr)}))
		case EvSchedGap:
			out.TraceEvents = append(out.TraceEvents,
				instant("sched-gap", e.Cycle, map[string]any{
					"block": hex(e.Addr), "fcfsLIs": e.Aux >> 16, "optLIs": e.Aux & 0xffff,
					"proven": e.Aux2 == 1,
				}))
		}
	}
	closeOcc(end)
	closeBlk(end)

	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}

func hex(v uint32) string { return fmt.Sprintf("%#x", v) }

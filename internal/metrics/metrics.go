// Package metrics is the simulator's always-on observability registry
// (DESIGN.md §17): counters, gauges and fixed-bucket histograms that are
// cheap enough to leave permanently enabled on the hot layers.
//
// The design splits responsibility in two:
//
//   - The hot layers (core, sched, vcache, mem) keep plain, single-owner
//     counters — ordinary uint64 fields touched only by the goroutine
//     that owns the machine. The machine copies them into core.Stats,
//     the one owner of every machine counter.
//   - A per-machine publisher walks one counter table over Stats and
//     flushes each row's *delta* into a registry instrument at coarse
//     synchronisation points: every return from Run, and every 2^14
//     simulated cycles, long stretches of VLIW execution included.
//     Registry instruments are atomics, so any number of machines can
//     share one registry and a scraper can read it concurrently,
//     mid-run, without locks on the simulation side.
//
// This keeps the per-instruction hot paths untouched (the zero-alloc
// guards and perf gates hold with metrics permanently on) while a live
// scrape is about one flush interval stale at most — and exactly equal
// to Stats at quiescence.
//
// Registration is idempotent: asking for an instrument that already
// exists returns the existing one, so independent machines publishing to
// a shared registry resolve the same counters. Mismatched re-registration
// (same name, different kind/label/buckets) panics: it is a programming
// error, never data-dependent.
//
// Snapshots are deterministic — families and series are sorted by name,
// never ranged from a map — so two identical runs produce byte-identical
// Prometheus and JSON dumps (see expose.go).
package metrics

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// enabled is the process-wide kill switch. It is read once per
// machine/sweep construction (not per operation): disabling metrics makes
// subsequently built machines skip publisher construction entirely, which
// is the "compiled to no-ops" side of the overhead benchmark.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// Enabled reports whether metrics publication is globally enabled.
func Enabled() bool { return enabled.Load() }

// SetEnabled flips the process-wide switch. It affects machines and
// sweeps constructed after the call; already-built publishers keep
// publishing.
func SetEnabled(on bool) { enabled.Store(on) }

// defaultRegistry is the process-wide registry instruments resolve
// against when a Config carries no explicit one.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Kind discriminates instrument families.
type Kind uint8

// Instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (it can go down).
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bound cumulative histogram of uint64 observations.
// Bucket i counts observations <= Bounds[i]; one implicit overflow bucket
// (Prometheus's +Inf) catches the rest. Bounds are fixed at registration,
// so Observe is a scan over a handful of bounds plus three atomic adds —
// no allocation, ever.
type Histogram struct {
	bounds  []uint64
	buckets []atomic.Uint64 // len(bounds)+1; last is overflow (+Inf)
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v uint64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// family is one named instrument family: either a single unlabeled
// series or one series per value of a single label.
type family struct {
	name   string
	help   string
	kind   Kind
	label  string   // label name; "" = unlabeled
	bounds []uint64 // histogram bucket bounds

	mu     sync.Mutex
	series map[string]any // label value ("" when unlabeled) -> instrument
}

// CounterVec is a counter family with one series per label value.
type CounterVec struct{ f *family }

// With returns the counter for the given label value, creating the
// series on first use. Resolve series outside hot loops and keep the
// *Counter handle: With takes the family mutex.
func (cv *CounterVec) With(value string) *Counter {
	cv.f.mu.Lock()
	defer cv.f.mu.Unlock()
	if c, ok := cv.f.series[value]; ok {
		return c.(*Counter)
	}
	c := &Counter{}
	cv.f.series[value] = c
	return c
}

// Registry holds instrument families. The registry mutex guards
// registration and snapshotting only; instrument operations are pure
// atomics.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// lookup returns the family for name, creating it on first registration
// and panicking on a mismatched re-registration.
func (r *Registry) lookup(name, help string, kind Kind, label string, bounds []uint64) *family {
	if name == "" {
		panic("metrics: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || f.label != label || !boundsEqual(f.bounds, bounds) {
			panic(fmt.Sprintf("metrics: %s re-registered with mismatched kind/label/bounds", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, label: label,
		bounds: bounds, series: make(map[string]any)}
	r.fams[name] = f
	return f
}

func boundsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or resolves) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, KindCounter, "", nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.series[""]; ok {
		return c.(*Counter)
	}
	c := &Counter{}
	f.series[""] = c
	return c
}

// CounterVec registers (or resolves) a counter family keyed by one label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if label == "" {
		panic("metrics: CounterVec needs a label name")
	}
	return &CounterVec{f: r.lookup(name, help, KindCounter, label, nil)}
}

// Gauge registers (or resolves) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, KindGauge, "", nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if g, ok := f.series[""]; ok {
		return g.(*Gauge)
	}
	g := &Gauge{}
	f.series[""] = g
	return g
}

// Histogram registers (or resolves) an unlabeled fixed-bucket histogram.
// Bounds must be strictly increasing.
func (r *Registry) Histogram(name, help string, bounds []uint64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: %s bounds not strictly increasing", name))
		}
	}
	f := r.lookup(name, help, KindHistogram, "", bounds)
	f.mu.Lock()
	defer f.mu.Unlock()
	if h, ok := f.series[""]; ok {
		return h.(*Histogram)
	}
	h := &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
	f.series[""] = h
	return h
}

// Package introspect serves live observability endpoints over HTTP
// (DESIGN.md §17): the always-on metrics registry in Prometheus text and
// JSON form, a /statusz process summary, and the stdlib pprof profiler.
// Every CLI that can run long enough to be worth watching takes a
// -metrics-addr flag and mounts this server on it; the simulation never
// blocks on a scrape — handlers only read atomic instruments and the
// caller-supplied status closure.
package introspect

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"dtsvliw/internal/metrics"
)

// Progress describes how far a long-running job has got, for /statusz.
type Progress struct {
	Done    int `json:"done"`
	Total   int `json:"total"`
	Workers int `json:"workers"`
}

// Status is the /statusz payload: what the process is, what it is
// running, and how far along it is. Config carries human-readable
// configuration key/values; Fingerprint is the core.ConfigFingerprint
// digest (or any other stable configuration id).
type Status struct {
	Program     string            `json:"program"`
	Args        []string          `json:"args,omitempty"`
	Config      map[string]string `json:"config,omitempty"`
	Fingerprint string            `json:"fingerprint,omitempty"`
	UptimeSecs  float64           `json:"uptime_secs"`
	Progress    *Progress         `json:"progress,omitempty"`
}

// Options configures a Server. A nil Registry serves metrics.Default; a
// nil Status serves a bare program/uptime payload.
type Options struct {
	Registry *metrics.Registry
	Program  string
	Args     []string
	// Status, when set, is called per /statusz request to fill the
	// dynamic part of the payload (Config, Fingerprint, Progress). It
	// must be safe to call concurrently with the workload.
	Status func() Status
}

// Server is a live introspection endpoint bound to one listener.
type Server struct {
	ln    net.Listener
	srv   *http.Server
	start time.Time
}

// Serve binds addr (host:port; port 0 picks a free one) and serves the
// introspection endpoints on it until Close. It returns once the
// listener is bound, so Addr is immediately valid.
func Serve(addr string, o Options) (*Server, error) {
	reg := o.Registry
	if reg == nil {
		reg = metrics.Default()
	}
	s := &Server{start: time.Now()} //determinism:allow human-facing uptime only

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		st := Status{}
		if o.Status != nil {
			st = o.Status()
		}
		if st.Program == "" {
			st.Program = o.Program
		}
		if st.Args == nil {
			st.Args = o.Args
		}
		st.UptimeSecs = time.Since(s.start).Seconds() //determinism:allow human-facing uptime only
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "dtsvliw introspection: /metrics /metrics.json /statusz /debug/pprof/\n")
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("introspect: %w", err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: mux}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and any idle connections.
func (s *Server) Close() error { return s.srv.Close() }

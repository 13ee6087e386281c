// Package introspect is the engine's live introspection server: an opt-in
// HTTP endpoint that exposes a running simulation's metrics registry in
// Prometheus text exposition format (/metrics), a live per-core slack view
// as a JSON snapshot or a Server-Sent Events stream (/slack), an on-demand
// forensic engine snapshot on a healthy run (/stallz, reusing the stall
// watchdog's StallReport rendering), and the standard net/http/pprof
// handlers (/debug/pprof/). The paper's whole argument is about where
// parallel-simulation time goes — slack between per-core local times and
// the global time, and the latency of requests through the shared memory
// hierarchy — and this server makes those quantities observable while the
// run is still going, instead of post mortem.
//
// The server is deliberately decoupled from the engine: it holds swappable
// source callbacks (SetMetrics/SetSlack/SetStall) that
// core.Machine.EnableIntrospection installs, so the server can be started
// before any machine exists, survive across the many machines of a bench
// sweep, and always answer its endpoints (with a "not attached" payload
// when no run is live — keeping health checks and scrapers simple).
package introspect

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"slacksim/internal/metrics"
)

// SlackSnapshot is one live observation of the engine's pacing state — the
// payload of /slack and of each SSE frame.
type SlackSnapshot struct {
	// Attached is false until a machine installs its sources (the server
	// may be up before, between, or after runs).
	Attached bool `json:"attached"`
	// Scheme is the running scheme's name ("CC", "S9*", ...).
	Scheme string `json:"scheme,omitempty"`
	// Global is the published global simulated time and Root the next
	// global-time candidate, the minimum of the cores' effective local
	// times; Root is -1 while every live core is blocked in the kernel.
	Global int64 `json:"global"`
	Root   int64 `json:"root"`
	// GQDepth mirrors the manager's global event-queue depth.
	GQDepth int64 `json:"gq_depth"`
	// InQHighWater/OutQHighWater are the highest occupancy any of the
	// run's InQ or OutQ rings has reached so far, one ring per core group.
	InQHighWater  int64 `json:"inq_high_water,omitempty"`
	OutQHighWater int64 `json:"outq_high_water,omitempty"`
	// Done marks a finished run (the sweep may start another).
	Done  bool        `json:"done"`
	Cores []SlackCore `json:"cores"`
	// Remote lists the distributed backend's worker supervision state
	// (empty for in-process runs): watch a reconnect or a degradation
	// happen live.
	Remote []RemoteWorker `json:"remote,omitempty"`
}

// RemoteWorker is one remote worker's supervision state inside a
// SlackSnapshot.
type RemoteWorker struct {
	ID int `json:"id"`
	// State is the supervisor verdict: healthy, suspect, reconnecting,
	// or abandoned (shards migrated into the parent).
	State  string `json:"state"`
	Shards []int  `json:"shards"`
	// Mark is the worker's last acknowledged gate.
	Mark int64 `json:"mark"`
	// Reconnects counts successful session resumes; Epoch is the
	// connection incarnation (0 = original).
	Reconnects int64 `json:"reconnects,omitempty"`
	Epoch      int64 `json:"epoch,omitempty"`
}

// SlackCore is one core's slice of a SlackSnapshot.
type SlackCore struct {
	ID int `json:"id"`
	// Local/MaxLocal are the core's clock and window edge (the paper's
	// Local(i) and MaxLocal(i)); MaxLocal is -1 for an unbounded window.
	Local    int64 `json:"local"`
	MaxLocal int64 `json:"max_local"`
	Blocked  bool  `json:"blocked,omitempty"`
	Parked   bool  `json:"parked,omitempty"`
	Frozen   bool  `json:"frozen,omitempty"`
	// InQ/OutQ are the current depths of the core's group rings: every
	// reply ring together, and the OutQ. Cores of one group report the
	// same depths.
	InQ  int `json:"inq"`
	OutQ int `json:"outq"`
	// Memory-event latency attribution: observation count and power-of-two
	// upper bounds on the p50/p99 request→reply latency in simulated
	// cycles.
	MemLatCount int64 `json:"mem_lat_count,omitempty"`
	MemLatP50   int64 `json:"mem_lat_p50,omitempty"`
	MemLatP99   int64 `json:"mem_lat_p99,omitempty"`
	// Straggler attribution: manager rounds this core's local time held
	// the global-time minimum, and the EWMA of its held fraction.
	StragglerHeld int64   `json:"straggler_held,omitempty"`
	StragglerEWMA float64 `json:"straggler_ewma,omitempty"`
}

// Server is the introspection HTTP server. Zero value is not usable; use
// New. All source setters may be called at any time, including while
// requests are in flight (a bench sweep re-attaches every run).
type Server struct {
	ln  net.Listener
	srv *http.Server

	mu        sync.RWMutex
	metricsFn func() metrics.Snapshot
	slackFn   func() SlackSnapshot
	stallFn   func(format string) ([]byte, error)

	closed    chan struct{}
	closeOnce sync.Once
}

// New listens on addr (e.g. ":8344", "127.0.0.1:0") and starts serving in
// a background goroutine. Close shuts it down.
func New(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("introspect: %w", err)
	}
	s := &Server{ln: ln, closed: make(chan struct{})}
	s.srv = &http.Server{Handler: s.Handler()}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// Addr returns the server's bound address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and terminates every in-flight SSE stream.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		err = s.srv.Close()
	})
	return err
}

// SetMetrics installs the /metrics source (nil to detach).
func (s *Server) SetMetrics(fn func() metrics.Snapshot) {
	s.mu.Lock()
	s.metricsFn = fn
	s.mu.Unlock()
}

// SetSlack installs the /slack source (nil to detach).
func (s *Server) SetSlack(fn func() SlackSnapshot) {
	s.mu.Lock()
	s.slackFn = fn
	s.mu.Unlock()
}

// SetStall installs the /stallz source (nil to detach). format is "text"
// or "json".
func (s *Server) SetStall(fn func(format string) ([]byte, error)) {
	s.mu.Lock()
	s.stallFn = fn
	s.mu.Unlock()
}

// Handler returns the server's routing table — exported so tests (and
// embedders with their own listener) can drive it without a socket.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/slack", s.handleSlack)
	mux.HandleFunc("/stallz", s.handleStall)
	// The pprof handlers register themselves on http.DefaultServeMux at
	// import; wire them onto this private mux explicitly.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `slacksim introspection server

  /metrics                     Prometheus text exposition of the run's registry
  /slack                       live per-core slack view (JSON)
  /slack?stream=1              same, as a Server-Sent Events stream
  /stallz?format=text|json     on-demand forensic engine snapshot
  /debug/pprof/                Go runtime profiles
`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	fn := s.metricsFn
	s.mu.RUnlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if fn == nil {
		fmt.Fprintln(w, "# no machine attached")
		return
	}
	WritePrometheus(w, fn())
}

func (s *Server) handleSlack(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	fn := s.slackFn
	s.mu.RUnlock()
	snap := func() SlackSnapshot {
		if fn == nil {
			return SlackSnapshot{}
		}
		return fn()
	}
	if r.URL.Query().Get("stream") == "1" || r.Header.Get("Accept") == "text/event-stream" {
		s.streamSlack(w, r, snap)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(snap()) //nolint:errcheck // client gone
}

// streamSlack serves /slack as Server-Sent Events: one JSON snapshot per
// interval until the client disconnects or the server closes.
func (s *Server) streamSlack(w http.ResponseWriter, r *http.Request, snap func() SlackSnapshot) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	interval := 200 * time.Millisecond
	if v := r.URL.Query().Get("interval_ms"); v != "" {
		if ms, err := strconv.Atoi(v); err == nil && ms >= 10 {
			interval = time.Duration(ms) * time.Millisecond
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	send := func() bool {
		buf, err := json.Marshal(snap())
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", buf); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	if !send() {
		return
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.closed:
			return
		case <-tick.C:
			if !send() {
				return
			}
		}
	}
}

func (s *Server) handleStall(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	fn := s.stallFn
	s.mu.RUnlock()
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "text"
	}
	if fn == nil {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "no machine attached")
		return
	}
	buf, err := fn(format)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if format == "json" {
		w.Header().Set("Content-Type", "application/json")
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	w.Write(buf) //nolint:errcheck // client gone
	if len(buf) > 0 && buf[len(buf)-1] != '\n' {
		w.Write([]byte("\n")) //nolint:errcheck
	}
}

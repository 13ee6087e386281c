// Package harness runs the paper's evaluation (§4): it sweeps slack
// schemes and host-core counts over the benchmarks and regenerates Table 2
// (baseline KIPS), Figure 8 (speedups per benchmark and their harmonic
// mean), and Table 3 (relative execution-time error of the optimistic
// schemes), plus the derived §4.2.1 claims.
package harness

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"slacksim/internal/asm"
	"slacksim/internal/cache"
	"slacksim/internal/core"
	"slacksim/internal/cpu"
	"slacksim/internal/introspect"
	"slacksim/internal/metrics"
	"slacksim/internal/trace"
	"slacksim/internal/workloads"
)

// Options configures an evaluation sweep.
type Options struct {
	// Workloads to run; defaults to the paper's four (Table 2).
	Workloads []string
	// Scale multiplies the workload input sizes.
	Scale int
	// Schemes to compare; defaults to the paper's seven (§4.2).
	Schemes []core.Scheme
	// HostCores values to sweep (GOMAXPROCS); defaults to {2, 4, 8}.
	HostCores []int
	// TargetCores is the simulated CMP size; defaults to 8 (§4.1).
	TargetCores int
	// Driver selects the execution engine: "serial", "parallel",
	// "sharded", "fused", or "auto" (the default). Auto picks the fused
	// single-goroutine driver when a run's host-core budget is 1 — the
	// threaded fabric is pure overhead there (ROADMAP item 5) —
	// and the parallel driver otherwise. hostCores == 0 (the serial
	// reference) always runs serial regardless of Driver.
	Driver string
	// Model selects the core timing model; defaults to the OoO target.
	Model core.CoreModel
	// Repeat runs each configuration this many times and keeps the best
	// wall time (defaults to 1).
	Repeat int
	// Verify checks workload results after every run.
	Verify bool
	// MaxCycles bounds each run.
	MaxCycles int64
	// Metrics attaches a metrics registry to every run; the registry
	// (with the run's sync-overhead breakdown) is kept on each Run and a
	// per-row breakdown is appended to the progress log.
	Metrics bool
	// TraceDir, when non-empty, writes a Chrome trace-event JSON per run
	// into this directory (created if missing), named
	// <workload>_<scheme>_<driver>_h<hostcores>.json — the driver is in
	// the name so sweep columns sharing a host-core count cannot
	// overwrite each other. A run that dies (SimError, stall abort) still
	// flushes its trace, suffixed _failed, so the forensic record is not
	// lost with the run.
	TraceDir string
	// Introspect, when non-nil, attaches every run to the live
	// introspection server (implies Metrics: the live views are built from
	// the registry).
	Introspect *introspect.Server
	// BundleDir, when non-empty, arms post-mortem crash bundles: a run
	// that fails (SimError, stall, abandoned workers) writes a
	// self-contained forensics directory under it (internal/bundle).
	BundleDir string
}

func (o *Options) fillDefaults() {
	if len(o.Workloads) == 0 {
		for _, w := range workloads.Paper() {
			o.Workloads = append(o.Workloads, w.Name)
		}
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	if len(o.Schemes) == 0 {
		o.Schemes = []core.Scheme{
			core.SchemeCC, core.SchemeQ10, core.SchemeL10,
			core.SchemeS9, core.SchemeS9x, core.SchemeS100, core.SchemeSU,
		}
	}
	if len(o.HostCores) == 0 {
		// The paper sweeps host-core counts up to 8 (Figures 9-10), and the
		// 1-host-core point anchors every scaling table, so it is always
		// included. Running more simulation parallelism than the host has
		// physical CPUs hands scheduling to the OS's coarse timeslicer,
		// which drifts core clocks by milliseconds and destroys the
		// optimistic schemes' accuracy (see EXPERIMENTS.md), so the larger
		// points are clipped to the host.
		o.HostCores = []int{1}
		for _, hc := range []int{2, 4, 8} {
			if hc <= runtime.NumCPU() {
				o.HostCores = append(o.HostCores, hc)
			}
		}
	}
	if o.TargetCores == 0 {
		o.TargetCores = 8
	}
	if o.Repeat == 0 {
		o.Repeat = 1
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 10_000_000_000
	}
	if o.Introspect != nil {
		o.Metrics = true
	}
	if o.Driver == "" {
		o.Driver = "auto"
	}
}

// DriverFor resolves the driver name that will execute a run at the given
// host-core count under these options. hostCores == 0 is the serial
// reference engine; "auto" maps a 1-host-core budget to the fused driver
// and everything else to the parallel driver.
func (o *Options) DriverFor(hostCores int) string {
	if hostCores == 0 {
		return "serial"
	}
	switch o.Driver {
	case "", "auto":
		if hostCores == 1 {
			return "fused"
		}
		return "parallel"
	default:
		return o.Driver
	}
}

// Run is one simulation outcome.
type Run struct {
	Workload  string
	Scheme    core.Scheme
	HostCores int    // 0 = serial reference engine
	Driver    string // engine that produced the result (serial/parallel/sharded/fused)
	Result    *core.Result
}

// Runner executes simulations described by Options.
type Runner struct {
	opts  Options
	progs map[string]*asm.Program
	Log   io.Writer // optional progress log

	stop    atomic.Bool                  // Interrupt() called: start no more runs
	current atomic.Pointer[core.Machine] // the machine in flight, if any
}

// ErrInterrupted is returned by runs cut short by Interrupt.
var ErrInterrupted = errors.New("harness: interrupted")

// Interrupt stops the sweep from another goroutine (a signal handler):
// the in-flight run is interrupted and drains cleanly, and no further
// runs start — every pending experiment returns ErrInterrupted.
func (r *Runner) Interrupt() {
	r.stop.Store(true)
	if m := r.current.Load(); m != nil {
		m.Interrupt()
	}
}

// NewRunner pre-assembles the selected workloads.
func NewRunner(opts Options) (*Runner, error) {
	opts.fillDefaults()
	switch opts.Driver {
	case "auto", "serial", "parallel", "sharded", "fused":
	default:
		return nil, fmt.Errorf("harness: unknown driver %q (want serial, parallel, sharded, fused, or auto)", opts.Driver)
	}
	r := &Runner{opts: opts, progs: make(map[string]*asm.Program)}
	for _, name := range opts.Workloads {
		w, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		prog, err := asm.Assemble(w.Source(opts.Scale), asm.Options{})
		if err != nil {
			return nil, fmt.Errorf("harness: assemble %s: %w", name, err)
		}
		r.progs[name] = prog
	}
	return r, nil
}

// Options returns the resolved options.
func (r *Runner) Options() Options { return r.opts }

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		fmt.Fprintf(r.Log, format, args...)
	}
}

func (r *Runner) machine(name, driver string) (*core.Machine, *workloads.Workload, error) {
	w, err := workloads.Get(name)
	if err != nil {
		return nil, nil, err
	}
	cfg := core.Config{
		NumCores:   r.opts.TargetCores,
		NumThreads: r.opts.TargetCores,
		Model:      r.opts.Model,
		CPU:        cpu.DefaultConfig(),
		Cache:      cache.DefaultConfig(r.opts.TargetCores),
		MaxCycles:  r.opts.MaxCycles,
	}
	if driver == "sharded" {
		cfg.ManagerShards = 2
	}
	m, err := core.NewMachine(r.progs[name], cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := w.Init(m.Image(), r.opts.Scale); err != nil {
		return nil, nil, err
	}
	return m, w, nil
}

// RunOne executes workload name under scheme with the given host-core
// count (GOMAXPROCS). hostCores == 0 selects the serial reference engine.
// The best of Repeat wall times is kept. With Options.Metrics set, each
// run carries a metrics registry and the kept result's sync-overhead
// breakdown is appended to the progress log; with Options.TraceDir set,
// the kept run's Chrome trace is written there.
func (r *Runner) RunOne(name string, scheme core.Scheme, hostCores int) (*Run, error) {
	driver := r.opts.DriverFor(hostCores)
	var best *core.Result
	var bestTrace *trace.Collector
	for rep := 0; rep < r.opts.Repeat; rep++ {
		if r.stop.Load() {
			return nil, ErrInterrupted
		}
		m, w, err := r.machine(name, driver)
		if err != nil {
			return nil, err
		}
		if r.opts.Metrics {
			m.EnableMetrics(metrics.NewRegistry())
		}
		if r.opts.Introspect != nil {
			if err := m.EnableIntrospection(r.opts.Introspect); err != nil {
				return nil, fmt.Errorf("harness: %s/%v: %w", name, scheme, err)
			}
		}
		var tc *trace.Collector
		if r.opts.TraceDir != "" {
			tc = trace.New()
			m.EnableTrace(tc)
		}
		if r.opts.BundleDir != "" {
			m.SetBundleDir(r.opts.BundleDir)
		}
		var res *core.Result
		start := time.Now()
		r.current.Store(m)
		switch driver {
		case "serial":
			res, err = m.RunSerial()
		case "fused":
			// The fused driver is single-goroutine by construction, but
			// GOMAXPROCS still bounds the host budget it is measured under
			// (GC workers, the OS), same as the parallel drivers.
			prev := runtime.GOMAXPROCS(hostCores)
			res, err = m.RunFused(scheme)
			runtime.GOMAXPROCS(prev)
		default: // parallel; sharded is the parallel driver with ManagerShards > 1
			prev := runtime.GOMAXPROCS(hostCores)
			res, err = m.RunParallel(scheme)
			runtime.GOMAXPROCS(prev)
		}
		r.current.Store(nil)
		if r.stop.Load() {
			return nil, ErrInterrupted
		}
		if err != nil {
			// The trace holds the events leading up to the failure — flush
			// it before surfacing the error, or the forensic record dies
			// with the run.
			r.flushFailedTrace(tc, name, scheme, driver, hostCores)
			r.logBundle(m)
			return nil, fmt.Errorf("harness: %s/%v: %w", name, scheme, err)
		}
		res.Wall = time.Since(start)
		if res.Aborted {
			r.flushFailedTrace(tc, name, scheme, driver, hostCores)
			r.logBundle(m)
			return nil, fmt.Errorf("harness: %s/%v aborted at %d cycles", name, scheme, res.EndTime)
		}
		if r.opts.Verify {
			if err := w.Verify(m.Image(), res.Output, r.opts.Scale); err != nil {
				return nil, fmt.Errorf("harness: %s/%v: %w", name, scheme, err)
			}
		}
		if best == nil || res.Wall < best.Wall {
			best = res
			bestTrace = tc
		}
	}
	r.logf("  %-8s %-5v host=%d %-8s: %8d cycles  %8d instrs  wall %10v\n",
		name, scheme, hostCores, driver, best.ROICycles(), best.Committed, best.Wall.Round(time.Microsecond))
	if r.opts.Metrics && best.CoreBusy != nil {
		bd := breakdownOf(best)
		r.logf("           sync: simulate %5.1f%%  wait %5.1f%%  manager %8v  events %d\n",
			bd.simPct(), bd.waitPct(), best.ManagerBusy.Round(time.Microsecond), best.EventsProcessed)
	}
	if bestTrace != nil {
		if err := r.writeTrace(bestTrace, traceBase(name, scheme, driver, hostCores, "")); err != nil {
			return nil, err
		}
	}
	return &Run{Workload: name, Scheme: scheme, HostCores: hostCores, Driver: driver, Result: best}, nil
}

// logBundle reports a crash-bundle directory the failed machine wrote.
func (r *Runner) logBundle(m *core.Machine) {
	if p := m.BundlePath(); p != "" {
		r.logf("           crash bundle: %s\n", p)
	}
}

// traceBase builds a run's trace file base name. The driver is part of
// the name: an "auto" sweep runs different drivers at different
// host-core columns, and two columns that happen to share a host-core
// count (or a re-run under another driver) must not overwrite each
// other's traces.
func traceBase(name string, scheme core.Scheme, driver string, hostCores int, suffix string) string {
	// "S9*" must survive as a file name.
	sname := strings.ReplaceAll(scheme.String(), "*", "x")
	return fmt.Sprintf("%s_%s_%s_h%d%s", name, sname, driver, hostCores, suffix)
}

// flushFailedTrace best-effort-writes a failed run's trace with a _failed
// suffix. The run is already dead; a trace-write error only gets logged.
func (r *Runner) flushFailedTrace(tc *trace.Collector, name string, scheme core.Scheme, driver string, hostCores int) {
	if tc == nil {
		return
	}
	if err := r.writeTrace(tc, traceBase(name, scheme, driver, hostCores, "_failed")); err != nil {
		r.logf("           trace (failed run): %v\n", err)
	}
}

// writeTrace dumps one run's trace into Options.TraceDir.
func (r *Runner) writeTrace(tc *trace.Collector, base string) error {
	if err := os.MkdirAll(r.opts.TraceDir, 0o755); err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	path := filepath.Join(r.opts.TraceDir, base+".json")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	defer f.Close()
	if err := tc.WriteChrome(f); err != nil {
		return fmt.Errorf("harness: writing %s: %w", path, err)
	}
	r.logf("           trace: %s\n", path)
	if dropped := tc.TotalDropped(); dropped > 0 {
		r.logf("           trace: %d event(s) dropped (ring wrapped; raise trace ring size)\n", dropped)
	}
	return nil
}

// Baseline runs the paper's comparison baseline for the given workload:
// cycle-by-cycle simulation with every simulation thread on one host core
// (§4.2.1, Table 2).
func (r *Runner) Baseline(name string) (*Run, error) {
	return r.RunOne(name, core.SchemeCC, 1)
}

// SerialReference runs the deterministic serial engine (the accuracy
// reference for Table 3).
func (r *Runner) SerialReference(name string) (*Run, error) {
	return r.RunOne(name, core.SchemeCC, 0)
}

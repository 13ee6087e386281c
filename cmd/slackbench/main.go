// Command slackbench regenerates the paper's evaluation (§4): Table 2
// (benchmarks and baseline KIPS), Figure 8 (simulation speedups per scheme
// and host-core count, per benchmark and harmonic mean), and Table 3
// (relative execution-time errors of the optimistic schemes).
//
// Examples:
//
//	slackbench -all
//	slackbench -figure8 -workloads fft,lu -hostcores 1,2
//	slackbench -table3 -scale 2 -repeat 3
//	slackbench -figure8 -listen 127.0.0.1:8344
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"slacksim/internal/core"
	"slacksim/internal/harness"
	"slacksim/internal/introspect"
)

func main() {
	var (
		table2    = flag.Bool("table2", false, "reproduce Table 2 (benchmarks + baseline KIPS)")
		figure8   = flag.Bool("figure8", false, "reproduce Figure 8 (speedup sweep + harmonic means + derived claims)")
		figure9   = flag.Bool("figure9", false, "reproduce Figures 9-10 (KIPS and scale-up by host-core count)")
		table3    = flag.Bool("table3", false, "reproduce Table 3 (relative execution-time errors)")
		all       = flag.Bool("all", false, "run every experiment")
		wls       = flag.String("workloads", "", "comma-separated workloads (default: the paper's four)")
		schemes   = flag.String("schemes", "", "comma-separated schemes (default: CC,Q10,L10,S9,S9*,S100,SU)")
		hostCores = flag.String("hostcores", "", "comma-separated host-core counts, none above the host's CPU count (default: 1 plus 2,4,8 clipped to this host)")
		scale     = flag.Int("scale", 1, "workload input scale factor")
		cores     = flag.Int("cores", 8, "target CMP cores")
		repeat    = flag.Int("repeat", 1, "repetitions per configuration (best wall time kept)")
		verify    = flag.Bool("verify", true, "verify workload results after every run")
		progress  = flag.Bool("progress", true, "log each run as it completes")
		breakdown = flag.Bool("breakdown", false, "print the per-scheme sync-overhead breakdown (simulate/wait/manager)")
		metricsOn = flag.Bool("metrics", false, "attach a metrics registry to every run and log per-run breakdowns")
		traceDir  = flag.String("tracedir", "", "write a Chrome trace-event JSON per run into this directory (named <workload>_<scheme>_<driver>_h<hostcores>.json)")
		bundleDir = flag.String("bundle-dir", "slackbench-bundles", "write a post-mortem crash bundle under this directory when a sweep run fails (empty disables)")
		listen    = flag.String("listen", "", "serve live introspection (/metrics, /slack, /stallz, /debug/pprof) on this address during the sweep (implies -metrics)")
	)
	flag.Parse()

	if *all {
		*table2, *figure8, *figure9, *table3 = true, true, true, true
	}
	if !*table2 && !*figure8 && !*figure9 && !*table3 && !*breakdown {
		fmt.Fprintln(os.Stderr, "slackbench: nothing to do; pass -table2, -figure8, -figure9, -table3, -breakdown, or -all")
		flag.Usage()
		os.Exit(2)
	}

	opts := harness.Options{
		Scale:       *scale,
		TargetCores: *cores,
		Repeat:      *repeat,
		Verify:      *verify,
		Metrics:     *metricsOn,
		TraceDir:    *traceDir,
		BundleDir:   *bundleDir,
	}
	var srv *introspect.Server
	if *listen != "" {
		var err error
		srv, err = introspect.New(*listen)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "slackbench: introspection on http://%s\n", srv.Addr())
		opts.Introspect = srv
	}
	if *wls != "" {
		opts.Workloads = splitList(*wls)
	}
	if *schemes != "" {
		for _, s := range splitList(*schemes) {
			sc, err := core.ParseScheme(s)
			if err != nil {
				fatal(err)
			}
			opts.Schemes = append(opts.Schemes, sc)
		}
	}
	if *hostCores != "" {
		for _, s := range splitList(*hostCores) {
			n, err := strconv.Atoi(s)
			if err != nil || n < 1 {
				fatal(fmt.Errorf("bad host-core count %q", s))
			}
			// A column above the host's CPUs would measure GOMAXPROCS
			// oversubscription, not parallelism; bench/ refuses it too.
			if n > runtime.NumCPU() {
				fatal(fmt.Errorf("host-core count %d exceeds runtime.NumCPU() = %d", n, runtime.NumCPU()))
			}
			opts.HostCores = append(opts.HostCores, n)
		}
	}

	r, err := harness.NewRunner(opts)
	if err != nil {
		fatal(err)
	}
	if *progress {
		r.Log = os.Stderr
	}

	// Graceful shutdown: a signal interrupts the in-flight run, stops the
	// sweep, and closes the introspection server instead of killing the
	// process mid-write. fatal() then exits nonzero with ErrInterrupted.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "slackbench: interrupt — stopping sweep")
		r.Interrupt()
		if srv != nil {
			srv.Close()
		}
	}()

	ro := r.Options()
	if *table2 {
		if err := r.Table2(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if *figure8 {
		if _, err := r.Figure8(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if *figure9 {
		if _, err := r.Figure9(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if *table3 {
		if err := r.Table3(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if *breakdown {
		for _, wl := range ro.Workloads {
			for _, hc := range ro.HostCores {
				tbl, err := r.SyncOverheadSweep(wl, hc)
				if err != nil {
					fatal(err)
				}
				fmt.Println(tbl)
			}
		}
	}
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "slackbench:", err)
	os.Exit(1)
}

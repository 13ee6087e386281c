// Command slacksim runs a single simulation: one workload (built-in or an
// assembly file) on the target CMP under a chosen slack scheme.
//
// Examples:
//
//	slacksim -workload fft -scheme S9
//	slacksim -workload lu -scheme Q10 -cores 8 -host 2 -v
//	slacksim -prog examples/quickstart/hello.s -scheme CC
//	slacksim -workload water -scheme SU -model inorder
//	slacksim -workload fft -scheme S9 -trace out.json -metrics -timeline
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
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

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "slacksim:", err)
		os.Exit(1)
	}
}

// run is the whole CLI, factored out of main so tests can drive it.
func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("slacksim", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		workload  = fs.String("workload", "", "built-in workload to run (see -list)")
		progFile  = fs.String("prog", "", "assembly source file to run instead of a built-in workload")
		schemeStr = fs.String("scheme", "S9", "slack scheme: CC, Q<n>, L<n>, S<n>, S<n>*, SU, or serial")
		driverStr = fs.String("driver", "auto", "execution driver: serial, parallel, sharded, fused, or auto (fused when -host 1, else parallel)")
		cores     = fs.Int("cores", 8, "number of target cores")
		host      = fs.Int("host", runtime.NumCPU(), "host cores (GOMAXPROCS) for the parallel engine")
		scale     = fs.Int("scale", 1, "workload input scale factor")
		model     = fs.String("model", "ooo", "core timing model: ooo or inorder")
		verbose   = fs.Bool("v", false, "print per-core statistics")
		verify    = fs.Bool("verify", true, "verify workload results against the Go reference")
		maxCycles = fs.Int64("max-cycles", 0, "abort after this many simulated cycles (0 = default)")
		shards    = fs.Int("shards", 1, "manager shards for the memory hierarchy (paper §2.2)")
		list      = fs.Bool("list", false, "list built-in workloads and exit")
		traceOut  = fs.String("trace", "", "write a Chrome trace-event JSON of the run to this file (load in Perfetto)")
		useMet    = fs.Bool("metrics", false, "collect engine/CPU/cache metrics and print the registry + sync-overhead breakdown")
		timeline  = fs.Bool("timeline", false, "print an ASCII per-core slack timeline (implies tracing)")
		forensics = fs.String("forensics", "text", "forensics rendering when a run fails or aborts: text, json, or off")
		stallTO   = fs.Duration("stall-timeout", 0, "abort a parallel run whose simulated time stalls for this host duration (0 = 60s default)")
		audit     = fs.Bool("audit", false, "enable the sampled runtime invariant auditor (Global <= Local <= MaxLocal)")
		listen    = fs.String("listen", "", "serve live introspection (/metrics, /slack, /stallz, /debug/pprof) on this address during the run (implies metrics collection)")
		bundleDir = fs.String("bundle-dir", "", "write a post-mortem crash bundle (trace, metrics, stall report, recovery state, MANIFEST) under this directory when the run fails")

		remoteWorkers = fs.String("remote-workers", "", "comma-separated worker addresses (slackworker -listen) to host the memory shards over TCP")
		remoteSpawn   = fs.Int("remote-spawn", 0, "serve this many in-process workers behind a loopback TCP listener to host the memory shards")
		remoteShards  = fs.Int("remote-shards", 0, "memory-hierarchy shards for the remote backend (default: one per worker)")
		remoteRetry   = fs.Int("remote-retry", 0, "redial attempts per worker failure before its shards migrate in-process (0 = 3, negative = no retries)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, w := range workloads.All() {
			fmt.Fprintf(out, "%-8s %s\n", w.Name, w.Description)
		}
		return nil
	}

	scheme, serial, err := parseScheme(*schemeStr)
	if err != nil {
		return err
	}

	var prog *asm.Program
	var wl *workloads.Workload
	switch {
	case *workload != "":
		wl, err = workloads.Get(*workload)
		if err != nil {
			return err
		}
		prog, err = asm.Assemble(wl.Source(*scale), asm.Options{})
		if err != nil {
			return fmt.Errorf("assembling %s: %w", *workload, err)
		}
	case *progFile != "":
		src, err := os.ReadFile(*progFile)
		if err != nil {
			return err
		}
		prog, err = asm.Assemble(string(src), asm.Options{})
		if err != nil {
			return fmt.Errorf("assembling %s: %w", *progFile, err)
		}
	default:
		return fmt.Errorf("need -workload or -prog (see -list)")
	}

	switch *forensics {
	case "text", "json", "off":
	default:
		return fmt.Errorf("unknown -forensics mode %q (want text, json, or off)", *forensics)
	}

	var workerAddrs []string
	if *remoteWorkers != "" {
		workerAddrs = strings.Split(*remoteWorkers, ",")
	}
	nWorkers := len(workerAddrs) + *remoteSpawn
	switch {
	case len(workerAddrs) > 0 && *remoteSpawn > 0:
		return fmt.Errorf("-remote-workers and -remote-spawn are mutually exclusive")
	case nWorkers > 0 && serial:
		return fmt.Errorf("the serial engine has no remote backend")
	case nWorkers == 0 && *remoteShards > 0:
		return fmt.Errorf("-remote-shards needs -remote-workers or -remote-spawn")
	case nWorkers > 0 && *remoteShards == 0:
		*remoteShards = nWorkers
	}

	driver, err := resolveDriver(*driverStr, serial, nWorkers, *shards, *host)
	if err != nil {
		return err
	}
	if driver == "sharded" && *shards < 2 {
		*shards = 2
	}

	cfg := core.Config{
		NumCores:      *cores,
		CPU:           cpu.DefaultConfig(),
		Cache:         cache.DefaultConfig(*cores),
		MaxCycles:     *maxCycles,
		ManagerShards: *shards,
		RemoteShards:  *remoteShards,
		StallTimeout:  *stallTO,
		Audit:         *audit,
	}
	if *model == "inorder" {
		cfg.Model = core.ModelInOrder
	}
	m, err := core.NewMachine(prog, cfg)
	if err != nil {
		return err
	}
	if wl != nil {
		if err := wl.Init(m.Image(), *scale); err != nil {
			return err
		}
	}

	var tc *trace.Collector
	var traceFile *os.File
	if *traceOut != "" || *timeline {
		tc = trace.New()
		m.EnableTrace(tc)
		if *traceOut != "" {
			// Open before the run so a bad path fails fast, not after
			// minutes of simulation.
			traceFile, err = os.Create(*traceOut)
			if err != nil {
				return err
			}
			defer traceFile.Close()
		}
	}
	var reg *metrics.Registry
	if *useMet || *listen != "" {
		// -listen needs the registry too: the live views are built on it.
		reg = metrics.NewRegistry()
		m.EnableMetrics(reg)
	}
	if *bundleDir != "" {
		m.SetBundleDir(*bundleDir)
	}
	if *listen != "" {
		isrv, err := introspect.New(*listen)
		if err != nil {
			return err
		}
		defer isrv.Close()
		if err := m.EnableIntrospection(isrv); err != nil {
			return err
		}
		fmt.Fprintf(errw, "introspection: http://%s\n", isrv.Addr())
	}

	// Graceful shutdown: SIGINT/SIGTERM interrupt the run instead of
	// killing the process, so traces still flush, the introspection
	// server still closes, and spawned worker sessions still drain.
	var interrupted atomic.Bool
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sigc)
		close(sigc)
	}()
	go func() {
		if _, ok := <-sigc; ok {
			interrupted.Store(true)
			fmt.Fprintln(errw, "slacksim: interrupt — stopping run, flushing outputs")
			m.Interrupt()
		}
	}()

	start := time.Now()
	var res *core.Result
	switch {
	case driver == "serial":
		res, err = m.RunSerial()
	case nWorkers > 0:
		var fleet *workerFleet
		var terr error
		if len(workerAddrs) > 0 {
			fleet, terr = dialWorkers(workerAddrs)
		} else {
			fleet, terr = spawnWorkers(*remoteSpawn)
		}
		if terr != nil {
			return terr
		}
		opts := &core.RemoteOptions{
			Transports:  fleet.transports,
			Redial:      fleet.redial,
			RetryBudget: *remoteRetry,
		}
		prev := runtime.GOMAXPROCS(*host)
		res, err = m.RunRemoteShardedOpts(scheme, opts)
		runtime.GOMAXPROCS(prev)
		fleet.cleanup()
	case driver == "fused":
		prev := runtime.GOMAXPROCS(*host)
		res, err = m.RunFused(scheme)
		runtime.GOMAXPROCS(prev)
	default:
		prev := runtime.GOMAXPROCS(*host)
		res, err = m.RunParallel(scheme)
		runtime.GOMAXPROCS(prev)
	}
	if err != nil {
		// A contained failure (panic, ring overflow, audit violation) or
		// a watchdog stall: print the cause plus the forensic snapshot and
		// exit nonzero.
		fmt.Fprintf(errw, "run FAILED: %v\n", err)
		writeForensics(errw, *forensics, reportOf(err))
		if p := m.BundlePath(); p != "" {
			fmt.Fprintf(errw, "crash bundle: %s\n", p)
		}
		return fmt.Errorf("simulation failed (%s scheme)", *schemeStr)
	}
	res.Wall = time.Since(start)

	if res.Output != "" {
		fmt.Fprintf(out, "output: %q\n", res.Output)
	}
	status := "ok"
	switch {
	case res.Aborted && interrupted.Load():
		status = "INTERRUPTED"
	case res.Aborted:
		status = "ABORTED (cycle limit)"
	}
	fmt.Fprintf(out, "scheme %v, driver %s: %s, exit code %d\n", *schemeStr, driver, status, res.ExitCode)
	fmt.Fprintf(out, "simulated: %d cycles total, %d ROI cycles, %d ROI instructions\n",
		res.EndTime, res.ROICycles(), res.Committed)
	fmt.Fprintf(out, "host: %v wall, %.1f KIPS, %d time warps\n", res.Wall.Round(time.Millisecond), res.KIPS(), res.TimeWarps)
	if rec := res.Recovery; rec != nil {
		// One greppable line per remote run — CI's chaos smoke asserts on
		// it, and an all-zero line is itself the "nothing went wrong" signal.
		fmt.Fprintf(out, "remote recovery: reconnects=%d replayed_batches=%d checkpoints=%d abandoned_workers=%d migrated_shards=%d\n",
			rec.Reconnects, rec.ReplayedBatches, rec.Checkpoints, rec.AbandonedWorkers, rec.MigratedShards)
		// A run that finished but abandoned workers still wrote a bundle
		// (the fleet shrank — someone will want the incident trail).
		if p := m.BundlePath(); p != "" {
			fmt.Fprintf(out, "crash bundle: %s\n", p)
		}
	}

	if wl != nil && *verify && !res.Aborted {
		if err := wl.Verify(m.Image(), res.Output, *scale); err != nil {
			return fmt.Errorf("verification FAILED: %w", err)
		}
		fmt.Fprintln(out, "verification: PASS")
	}

	if *verbose {
		for i, st := range res.CoreStats {
			fmt.Fprintf(out, "core %d: %d instrs, %d cycles (%d skipped), ipc %.2f, %d loads, %d stores, %d branches (%.1f%% mispredict), L1D %d/%d hits, %d syscalls\n",
				i, st.Committed, st.Cycles, st.Skipped, ipc(st), st.Loads, st.Stores,
				st.Branches, pct(st.Mispred, st.Branches), st.L1D.Hits, st.L1D.Hits+st.L1D.Misses, st.Syscalls)
		}
		l2 := res.L2Stats
		fmt.Fprintf(out, "L2: %d accesses (%.1f%% hits), %d DRAM reads, %d invalidations, %d downgrades\n",
			l2.Accesses, pct(l2.Hits, l2.Accesses), l2.DRAMReads, l2.InvsSent, l2.Downgrades)
	}

	if *useMet {
		var busy, wait time.Duration
		for i := range res.CoreBusy {
			busy += res.CoreBusy[i]
			wait += res.CoreWait[i]
		}
		// The serial driver has no core goroutines, so no breakdown.
		if busy > 0 {
			fmt.Fprintf(out, "sync overhead: simulate %.1f%%, wait %.1f%%, manager %v, %d events processed\n",
				100*float64(busy-wait)/float64(busy), 100*float64(wait)/float64(busy),
				res.ManagerBusy.Round(time.Microsecond), res.EventsProcessed)
		}
		printStragglers(out, res.Stragglers)
		fmt.Fprintf(out, "host memory: %d allocs (%.2f/kinstr), %d GCs, %v pause\n",
			res.HostAllocs, res.AllocsPerKInstr(), res.HostGCs,
			res.HostGCPauses.Round(time.Microsecond))
		if rw := res.Wire; rw != nil {
			fmt.Fprintf(out, "wire: parent sent %d B in %d batches (%.0f B/batch), recvd %d B; workers encode %v, decode %v\n",
				rw.Parent.BytesSent, rw.Parent.BatchesSent, rw.Parent.BytesPerBatch(),
				rw.Parent.BytesRecv,
				time.Duration(rw.Workers.EncodeNS).Round(time.Microsecond),
				time.Duration(rw.Workers.DecodeNS).Round(time.Microsecond))
		}
		fmt.Fprintln(out, "metrics:")
		if err := reg.Write(out); err != nil {
			return err
		}
	}
	if *timeline {
		if err := tc.SlackTimeline(out, 72); err != nil {
			return err
		}
	}
	if traceFile != nil {
		// WriteTraceChrome merges the whole fleet for a remote run (worker
		// tracks rebased onto the parent clock, wire flow events,
		// supervision incidents); local drivers get the plain export.
		if err := m.WriteTraceChrome(traceFile); err != nil {
			return fmt.Errorf("writing trace %s: %w", *traceOut, err)
		}
		if err := traceFile.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: %s (load in Perfetto / chrome://tracing)\n", *traceOut)
		if d := tc.TotalDropped(); d > 0 {
			fmt.Fprintf(errw, "warning: trace dropped %d event(s) — per-core rings wrapped, oldest events lost (see trace.dropped.* metrics)\n", d)
		}
	}
	if res.Aborted {
		if interrupted.Load() {
			// A signal-driven stop is deliberate: no forensics, but still a
			// nonzero exit so scripts know the run did not complete.
			return fmt.Errorf("interrupted at %d simulated cycles", res.EndTime)
		}
		// A MaxCycles abort is a failed run: surface the snapshot and make
		// the process exit nonzero so scripted sweeps notice.
		writeForensics(errw, *forensics, res.Forensics)
		if p := m.BundlePath(); p != "" {
			fmt.Fprintf(errw, "crash bundle: %s\n", p)
		}
		return fmt.Errorf("aborted at %d simulated cycles (cycle limit)", res.EndTime)
	}
	return nil
}

// printStragglers surfaces the manager's per-core hold attribution: which
// target cores most often held back the global window, and by how much
// (EWMA of held rounds). Only cores that ever held the window are shown.
func printStragglers(out io.Writer, ss []core.Straggler) {
	held := make([]core.Straggler, 0, len(ss))
	for _, s := range ss {
		if s.HeldRounds > 0 {
			held = append(held, s)
		}
	}
	if len(held) == 0 {
		return
	}
	sort.Slice(held, func(i, j int) bool { return held[i].HeldRounds > held[j].HeldRounds })
	if len(held) > 4 {
		held = held[:4]
	}
	fmt.Fprint(out, "stragglers:")
	for _, s := range held {
		fmt.Fprintf(out, " core %d (%d rounds, %.1f%% of run, ewma %.2f)",
			s.Core, s.HeldRounds, 100*s.HeldFrac, s.EWMA)
	}
	fmt.Fprintln(out)
}

// reportOf extracts the forensic snapshot attached to a run error.
func reportOf(err error) *core.StallReport {
	var stall *core.StallError
	if errors.As(err, &stall) {
		return stall.Report
	}
	var sim *core.SimError
	if errors.As(err, &sim) {
		return sim.Report
	}
	return nil
}

// writeForensics renders a snapshot per the -forensics mode.
func writeForensics(w io.Writer, mode string, r *core.StallReport) {
	if r == nil || mode == "off" {
		return
	}
	if mode == "json" {
		b, err := r.JSON()
		if err != nil {
			fmt.Fprintf(w, "forensics: %v\n", err)
			return
		}
		w.Write(b)
		fmt.Fprintln(w)
		return
	}
	fmt.Fprint(w, r.Text())
}

func ipc(st *cpu.Stats) float64 {
	if st.Cycles == 0 {
		return 0
	}
	return float64(st.Committed) / float64(st.Cycles)
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// resolveDriver maps the -driver flag onto an execution engine, honoring
// the legacy "-scheme serial" spelling and the sharded/remote flags. Auto
// picks fused when the host-core budget is 1 (goroutine fabric is pure
// overhead there), sharded when -shards asks for it, remote when workers
// are configured, and parallel otherwise.
func resolveDriver(name string, serialScheme bool, nWorkers, shards, host int) (string, error) {
	switch name {
	case "auto":
		switch {
		case serialScheme:
			return "serial", nil
		case nWorkers > 0:
			return "remote", nil
		case shards > 1:
			return "sharded", nil
		case host == 1:
			return "fused", nil
		default:
			return "parallel", nil
		}
	case "serial":
		if nWorkers > 0 {
			return "", fmt.Errorf("the serial engine has no remote backend")
		}
		return "serial", nil
	case "parallel", "sharded", "fused":
		if serialScheme {
			return "", fmt.Errorf("-scheme serial conflicts with -driver %s", name)
		}
		if nWorkers > 0 {
			return "", fmt.Errorf("-driver %s conflicts with the remote-backend flags", name)
		}
		if name == "fused" && shards > 1 {
			return "", fmt.Errorf("-driver fused is a single-goroutine engine; it cannot host -shards %d", shards)
		}
		return name, nil
	default:
		return "", fmt.Errorf("unknown -driver %q (want serial, parallel, sharded, fused, or auto)", name)
	}
}

// parseScheme parses a scheme name, plus "serial" for the reference engine.
func parseScheme(s string) (core.Scheme, bool, error) {
	if strings.EqualFold(strings.TrimSpace(s), "serial") {
		return core.Scheme{}, true, nil
	}
	scheme, err := core.ParseScheme(s)
	return scheme, false, err
}

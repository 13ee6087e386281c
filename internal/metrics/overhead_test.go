package metrics_test

import (
	"sync"
	"syscall"
	"testing"
	"time"

	"slacksim/internal/asm"
	"slacksim/internal/cache"
	"slacksim/internal/core"
	"slacksim/internal/cpu"
	"slacksim/internal/metrics"
	"slacksim/internal/trace"
	"slacksim/internal/workloads"
)

// This file bounds the observability subsystem's disabled-path overhead.
// The instrumentation sites in the engine's hot loops cost, when tracing
// and metrics are off, a handful of nil checks per simulated core-cycle.
// TestDisabledOverheadBudget measures (a) the host CPU cost of one
// simulated core-cycle in a real parallel run and (b) the measured cost of
// a disabled-path operation, and asserts that an over-generous per-cycle
// site budget stays under 5% of the per-cycle cost. The paired
// BenchmarkParallelObservability{Off,On} benchmarks give the end-to-end
// numbers recorded in bench_results.txt.

var (
	overheadOnce sync.Once
	overheadProg *asm.Program
	overheadWl   *workloads.Workload
	overheadErr  error
)

func buildMachine(tb testing.TB) *core.Machine {
	tb.Helper()
	overheadOnce.Do(func() {
		overheadWl, overheadErr = workloads.Get("fft")
		if overheadErr != nil {
			return
		}
		overheadProg, overheadErr = asm.Assemble(overheadWl.Source(1), asm.Options{})
	})
	if overheadErr != nil {
		tb.Fatal(overheadErr)
	}
	cfg := core.Config{
		NumCores:  4,
		CPU:       cpu.DefaultConfig(),
		Cache:     cache.DefaultConfig(4),
		MaxCycles: 500_000_000,
	}
	m, err := core.NewMachine(overheadProg, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := overheadWl.Init(m.Image(), 1); err != nil {
		tb.Fatal(err)
	}
	return m
}

// tickedCycles is the number of (core, cycle) pairs the run simulated
// tick-by-tick (skipped fast-forward cycles pay no per-tick cost).
func tickedCycles(res *core.Result) int64 {
	var n int64
	for _, st := range res.CoreStats {
		n += st.Cycles + st.IdleCycles
	}
	return n
}

func TestDisabledOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("workload run")
	}
	if raceEnabled {
		t.Skip("timing-sensitive; race instrumentation distorts both sides")
	}

	// (a) Host cost of a simulated core-cycle with instrumentation
	// disabled: the process CPU time of the run over its ticked cycles. CPU
	// time, not wall time — the group goroutines run truly in parallel, so
	// wall time per cycle shrinks with the host threads, and other test
	// binaries sharing the host stretch it; the run's own CPU time is what
	// a disabled site's nil check adds to.
	m := buildMachine(t)
	cpu0 := processCPU()
	res, err := m.RunParallel(core.SchemeS9)
	cpuNS := (processCPU() - cpu0).Nanoseconds()
	if err != nil {
		t.Fatal(err)
	}
	ticked := tickedCycles(res)
	if ticked == 0 {
		t.Fatal("no ticked cycles")
	}
	perCycleNS := float64(cpuNS) / float64(ticked)
	if perCycleNS <= 0 {
		t.Fatalf("implausible per-cycle cost %.2f ns", perCycleNS)
	}

	// (b) Cost of one disabled-path operation (nil-handle update): the
	// fastest of a few benchmark runs, since a concurrent load can only
	// slow one down.
	nilOpNS := 0.0
	for run := 0; run < 3; run++ {
		br := testing.Benchmark(func(b *testing.B) {
			var c *metrics.Counter
			var h *metrics.Histogram
			var w *trace.Writer
			for i := 0; i < b.N; i++ {
				c.Add(1)
				h.Observe(int64(i))
				w.Count(trace.KSlack, int64(i))
			}
		})
		// Three nil-handle ops per benchmark iteration.
		if ns := float64(br.T.Nanoseconds()) / float64(br.N) / 3; run == 0 || ns < nilOpNS {
			nilOpNS = ns
		}
	}

	// The engine's disabled path executes at most a few nil checks per
	// ticked cycle: coreTurn's batched inner loop carries none at all (the
	// sampling test runs once per outer iteration, masked to 1 in 64), and
	// the manager's per-round checks amortise over the cores' cycles plus
	// one per processed event. The latency-attribution stamps add one
	// m.met nil check per memory-event send (Env.Send) and one SendNS==0
	// check per delivery — both per-event, not per-cycle. Budget 10 —
	// still several times the real amortised count.
	const opsPerCycle = 10
	overhead := opsPerCycle * nilOpNS / perCycleNS
	t.Logf("per-cycle cost %.1f ns, disabled op %.3f ns, budget %d ops/cycle -> overhead %.3f%%",
		perCycleNS, nilOpNS, opsPerCycle, overhead*100)
	if overhead >= 0.05 {
		t.Errorf("disabled-instrumentation budget %.2f%% >= 5%%", overhead*100)
	}
}

// processCPU is the user+sys CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func benchmarkParallel(b *testing.B, attach bool) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := buildMachine(b)
		if attach {
			m.EnableTrace(trace.New())
			m.EnableMetrics(metrics.NewRegistry())
		}
		b.StartTimer()
		res, err := m.RunParallel(core.SchemeS9)
		if err != nil {
			b.Fatal(err)
		}
		if res.Aborted {
			b.Fatal("run aborted")
		}
	}
}

// BenchmarkParallelObservabilityOff is the engine with the subsystem
// compiled in but disabled — compare against the seed's BenchmarkParallel
// numbers (bench_results.txt) for the cross-version check.
func BenchmarkParallelObservabilityOff(b *testing.B) { benchmarkParallel(b, false) }

// BenchmarkParallelObservabilityOn measures the enabled-path cost.
func BenchmarkParallelObservabilityOn(b *testing.B) { benchmarkParallel(b, true) }

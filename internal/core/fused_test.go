package core

import (
	"fmt"
	"runtime"
	"testing"

	"slacksim/internal/asm"
	"slacksim/internal/cpu"
	"slacksim/internal/workloads"
)

// TestFusedSum is the quick smoke for the fused driver: a short arithmetic
// workload on one and four target cores must produce the same output, exit
// code, and end time as the serial reference.
func TestFusedSum(t *testing.T) {
	for _, n := range []int{1, 4} {
		ref := runSerial(t, mustMachine(t, sumProg, smallConfig(n)))
		m := mustMachine(t, sumProg, smallConfig(n))
		res, err := m.RunFused(SchemeCC)
		if err != nil {
			t.Fatal(err)
		}
		if res.Aborted {
			t.Fatalf("n=%d: aborted at %d", n, res.EndTime)
		}
		if res.Output != "5050" || res.ExitCode != 7 {
			t.Fatalf("n=%d: output=%q exit=%d, want 5050/7", n, res.Output, res.ExitCode)
		}
		if res.EndTime != ref.EndTime {
			t.Fatalf("n=%d: end time fused=%d serial=%d", n, res.EndTime, ref.EndTime)
		}
		if res.TimeWarps != 0 || res.CoherenceWarps != 0 {
			t.Fatalf("n=%d: fused CC saw warps (%d,%d)", n, res.TimeWarps, res.CoherenceWarps)
		}
	}
}

// TestFusedThreadsAllSchemes drives the blocking-syscall workload (locks,
// barriers, thread create/join) through the fused driver under every
// scheme, and checks the driver spawns no goroutines: the count before and
// after each run must match without any settling.
func TestFusedThreadsAllSchemes(t *testing.T) {
	schemes := []Scheme{SchemeCC, SchemeQ10, SchemeL10, SchemeS9, SchemeS9x, SchemeS100, SchemeSU}
	for _, s := range schemes {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			before := runtime.NumGoroutine()
			m := mustMachine(t, threadsProg, smallConfig(4))
			res, err := m.RunFused(s)
			if err != nil {
				t.Fatal(err)
			}
			if res.Aborted {
				t.Fatalf("aborted at %d", res.EndTime)
			}
			if want := expectTotal(4); res.Output != want {
				t.Fatalf("output = %q, want %q", res.Output, want)
			}
			if s.Conservative() && (res.TimeWarps != 0 || res.CoherenceWarps != 0) {
				t.Fatalf("%v: conservative fused run saw warps (%d,%d)", s, res.TimeWarps, res.CoherenceWarps)
			}
			if after := settleGoroutines(before); after > before {
				t.Fatalf("goroutines grew %d -> %d: fused driver must not spawn any", before, after)
			}
		})
	}
}

// TestFusedConservativeExact checks the fused driver against the serial
// reference for every conservative scheme on the multi-threaded workload:
// same schedule-invariant semantics, so bit-identical end times.
func TestFusedConservativeExact(t *testing.T) {
	ref := runSerial(t, mustMachine(t, threadsProg, smallConfig(4)))
	for _, s := range []Scheme{SchemeCC, SchemeQ10, SchemeL10, SchemeS9x} {
		m := mustMachine(t, threadsProg, smallConfig(4))
		res, err := m.RunFused(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.EndTime != ref.EndTime {
			t.Errorf("%v: fused end %d != serial %d", s, res.EndTime, ref.EndTime)
		}
		if want := expectTotal(4); res.Output != want {
			t.Errorf("%v: output %q, want %q", s, res.Output, want)
		}
	}
}

// fusedOutcome is the curated, host-schedule-independent outcome of a run
// (the same counter set TestBatchedSteppingDeterminism compares).
type fusedOutcome struct {
	endTime   int64
	roiCycles int64
	output    string
	exitCode  int64
	timeWarps int64
	cohWarps  int64
	cores     []cpu.Stats
}

func curatedOutcome(r *Result) fusedOutcome {
	o := fusedOutcome{
		endTime:   r.EndTime,
		roiCycles: r.ROICycles(),
		output:    r.Output,
		exitCode:  r.ExitCode,
		timeWarps: r.TimeWarps,
		cohWarps:  r.CoherenceWarps,
	}
	for _, st := range r.CoreStats {
		o.cores = append(o.cores, cpu.Stats{
			Committed:   st.Committed,
			Fetched:     st.Fetched,
			Squashed:    st.Squashed,
			Loads:       st.Loads,
			Stores:      st.Stores,
			Branches:    st.Branches,
			Mispred:     st.Mispred,
			Syscalls:    st.Syscalls,
			Retries:     st.Retries,
			MemFaults:   st.MemFaults,
			Prefetches:  st.Prefetches,
			OpsLoadDone: st.OpsLoadDone,
			OpsWB:       st.OpsWB,
			L1D:         st.L1D,
			L1I:         st.L1I,
			ROIMarked:   st.ROIMarked,
		})
	}
	return o
}

func diffOutcomes(t *testing.T, label string, a, b fusedOutcome) {
	t.Helper()
	if a.endTime != b.endTime {
		t.Errorf("%s: end time %d != %d", label, a.endTime, b.endTime)
	}
	if a.roiCycles != b.roiCycles {
		t.Errorf("%s: ROI cycles %d != %d", label, a.roiCycles, b.roiCycles)
	}
	if a.output != b.output {
		t.Errorf("%s: output %q != %q", label, a.output, b.output)
	}
	if a.exitCode != b.exitCode {
		t.Errorf("%s: exit code %d != %d", label, a.exitCode, b.exitCode)
	}
	if a.timeWarps != b.timeWarps || a.cohWarps != b.cohWarps {
		t.Errorf("%s: warps (%d,%d) != (%d,%d)", label, a.timeWarps, a.cohWarps, b.timeWarps, b.cohWarps)
	}
	for i := range a.cores {
		if a.cores[i] != b.cores[i] {
			t.Errorf("%s: core %d stats differ:\n a: %+v\n b: %+v", label, i, a.cores[i], b.cores[i])
		}
	}
}

// TestFusedDeterminism is the bit-exactness oracle from the issue: a paper
// workload under the deterministic schemes must produce an identical
// simulation through the fused, serial, and parallel drivers — end time,
// ROI cycles, output, warp counters, and every trajectory-determined
// per-core counter. Serial is compared in full only for CC (it *is* the CC
// engine); under every other conservative scheme its end time and ROI
// cycles must still match (the paper's exactness claim, §3.2). The parallel
// driver is compared in full for every conservative scheme.
func TestFusedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("workload runs")
	}
	w, err := workloads.Get("fft")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(w.Source(1), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("fft1", func(t *testing.T) {
		mk := func() *Machine {
			cfg := smallConfig(4)
			cfg.MemSize = 64 << 20
			cfg.MaxCycles = 200_000_000
			m, err := NewMachine(prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Init(m.Image(), 1); err != nil {
				t.Fatal(err)
			}
			return m
		}
		run := func(drive func(*Machine) (*Result, error)) fusedOutcome {
			t.Helper()
			m := mk()
			r, err := drive(m)
			if err != nil {
				t.Fatal(err)
			}
			if r.Aborted {
				t.Fatalf("run aborted at %d cycles", r.EndTime)
			}
			if err := w.Verify(m.Image(), r.Output, 1); err != nil {
				t.Fatal(err)
			}
			return curatedOutcome(r)
		}
		serial := run(func(m *Machine) (*Result, error) { return m.RunSerial() })
		for _, s := range []Scheme{SchemeCC, SchemeQ10, SchemeL10, SchemeS9x} {
			s := s
			fused := run(func(m *Machine) (*Result, error) { return m.RunFused(s) })
			par := run(func(m *Machine) (*Result, error) { return m.RunParallel(s) })
			diffOutcomes(t, fmt.Sprintf("%v fused-vs-parallel", s), fused, par)
			if s == SchemeCC {
				diffOutcomes(t, "CC fused-vs-serial", fused, serial)
			} else if fused.endTime != serial.endTime || fused.roiCycles != serial.roiCycles {
				t.Errorf("%v fused-vs-serial: end %d roi %d != serial end %d roi %d",
					s, fused.endTime, fused.roiCycles, serial.endTime, serial.roiCycles)
			}
			t.Logf("%-4v end=%d roi=%d: fused, parallel identical; serial time equal", s, fused.endTime, fused.roiCycles)
		}
	})
	// One K = 1 engine: RunFused and RunParallel on one host thread are the
	// same run, optimistic schemes included, on the paper's 8-core target.
	t.Run("ocean2/K=1", func(t *testing.T) {
		prog, w := oceanProg(t, 2)
		for _, s := range []Scheme{SchemeCC, SchemeS9x, SchemeS100} {
			run := func(drive func(*Machine) (*Result, error)) *Result {
				t.Helper()
				m := paperMachine(t, prog, w, 2, 0)
				var r *Result
				var err error
				withGOMAXPROCS(1, func() { r, err = drive(m) })
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Verify(m.Image(), r.Output, 2); err != nil {
					t.Fatal(err)
				}
				return r
			}
			fused := run(func(m *Machine) (*Result, error) { return m.RunFused(s) })
			par := run(func(m *Machine) (*Result, error) { return m.RunParallel(s) })
			label := fmt.Sprintf("%v fused-vs-parallel at K=1", s)
			diffOutcomes(t, label, curatedOutcome(fused), curatedOutcome(par))
			if fused.L2Stats != par.L2Stats {
				t.Errorf("%s: L2 stats\n fused    %+v\n parallel %+v", label, fused.L2Stats, par.L2Stats)
			}
			if fused.Groups != 1 || par.Groups != 1 {
				t.Errorf("%s: groups %d and %d, want 1", label, fused.Groups, par.Groups)
			}
			t.Logf("%-4v end=%d roi=%d warps=%d: identical", s, fused.EndTime, fused.ROICycles(), fused.TimeWarps)
		}
	})
}

// TestFusedZeroAlloc mirrors TestDriverAllocsBounded for the fused driver:
// with metrics off, host heap allocations must stay a small per-run
// constant instead of scaling with committed instructions. The fused
// budget is tighter than the parallel one — no goroutines, parks, or ring
// growth — but keeps the same shape so the two gates read alike.
func TestFusedZeroAlloc(t *testing.T) {
	t.Run(fmt.Sprintf("model%d", ModelOoO), func(t *testing.T) {
		m := mustMachine(t, allocLoopProg, smallConfig(1))
		res, err := m.RunFused(SchemeCC)
		if err != nil {
			t.Fatal(err)
		}
		if res.Aborted {
			t.Fatalf("aborted after %d cycles", res.EndTime)
		}
		if res.Committed < 300_000 {
			t.Fatalf("committed = %d, want a long run", res.Committed)
		}
		budget := uint64(20_000) + uint64(res.Committed/1000)
		if res.HostAllocs > budget {
			t.Errorf("HostAllocs = %d over %d instrs (%.2f/kinstr), budget %d",
				res.HostAllocs, res.Committed, res.AllocsPerKInstr(), budget)
		}
		t.Logf("HostAllocs=%d (%.3f/kinstr) GCs=%d pause=%v",
			res.HostAllocs, res.AllocsPerKInstr(), res.HostGCs, res.HostGCPauses)
	})
}

// TestFusedRejectsShardedConfigs pins the driver's scope: fused is a
// single-goroutine engine, so sharded-manager and remote-shard machines
// must be refused with an error rather than silently mis-executed.
func TestFusedRejectsShardedConfigs(t *testing.T) {
	cfg := smallConfig(4)
	cfg.RemoteShards = 2
	m := mustMachine(t, sumProg, cfg)
	if _, err := m.RunFused(SchemeCC); err == nil {
		t.Fatal("RunFused accepted RemoteShards=2")
	}
}

package workloads

import (
	"testing"

	"slacksim/internal/asm"
	"slacksim/internal/cache"
	"slacksim/internal/core"
	"slacksim/internal/cpu"
)

func machineFor(t *testing.T, w *Workload, threads, scale int, mods ...func(*core.Config)) *core.Machine {
	t.Helper()
	prog, err := asm.Assemble(w.Source(scale), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		NumCores:   threads,
		NumThreads: threads,
		CPU:        cpu.DefaultConfig(),
		Cache:      cache.DefaultConfig(threads),
		MemSize:    64 << 20,
		MaxCycles:  500_000_000,
	}
	for _, mod := range mods {
		mod(&cfg)
	}
	m, err := core.NewMachine(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Init(m.Image(), scale); err != nil {
		t.Fatal(err)
	}
	return m
}

// runSerial drives the serial reference, failing the test on a contained
// fault.
func runSerial(t testing.TB, m *core.Machine) *core.Result {
	t.Helper()
	res, err := m.RunSerial()
	if err != nil {
		t.Fatalf("RunSerial: %v", err)
	}
	return res
}

// TestConservativeExactAcrossWorkloads is the strongest correctness claim
// in the repository: for every benchmark, the parallel engine under the
// oldest-first bounded-slack scheme (window 9 < critical latency 10)
// produces exactly the serial cycle-by-cycle execution time, and the
// workload verifies.
func TestConservativeExactAcrossWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep")
	}
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			ref := runSerial(t, machineFor(t, w, 4, 1))
			if ref.Aborted {
				t.Fatal("serial reference aborted")
			}
			m := machineFor(t, w, 4, 1)
			res, err := m.RunParallel(core.SchemeS9x)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Verify(m.Image(), res.Output, 1); err != nil {
				t.Fatal(err)
			}
			if res.EndTime != ref.EndTime {
				t.Fatalf("S9* end time %d != serial %d", res.EndTime, ref.EndTime)
			}
			if res.TimeWarps != 0 {
				t.Fatalf("conservative run warped %d ops", res.TimeWarps)
			}
		})
	}
}

// TestOptimisticCorrectAcrossWorkloads: under unbounded slack every
// workload must still execute correctly (the paper's §3.2.3 claim), with a
// bounded — if nonzero — execution-time distortion.
func TestOptimisticCorrectAcrossWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep")
	}
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			ref := runSerial(t, machineFor(t, w, 4, 1))
			m := machineFor(t, w, 4, 1)
			res, err := m.RunParallel(core.SchemeSU)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Verify(m.Image(), res.Output, 1); err != nil {
				t.Fatalf("workload must execute correctly under SU: %v", err)
			}
			ratio := float64(res.EndTime) / float64(ref.EndTime)
			if ratio < 0.5 || ratio > 2.0 {
				t.Fatalf("SU execution time %d is %.2fx the reference %d", res.EndTime, ratio, ref.EndTime)
			}
		})
	}
}

// TestWorkloadScale2 runs one benchmark at double scale to exercise the
// scale plumbing (bigger inputs, same verification).
func TestWorkloadScale2(t *testing.T) {
	if testing.Short() {
		t.Skip("scaled run")
	}
	w, err := Get("radix")
	if err != nil {
		t.Fatal(err)
	}
	m := machineFor(t, w, 4, 2)
	res := runSerial(t, m)
	if res.Aborted {
		t.Fatal("aborted")
	}
	if err := w.Verify(m.Image(), res.Output, 2); err != nil {
		t.Fatal(err)
	}
}

// TestWorkloadOddThreadCount checks the block partitioning's last-thread
// remainder handling (3 threads do not divide the problem sizes evenly).
func TestWorkloadOddThreadCount(t *testing.T) {
	if testing.Short() {
		t.Skip("extra sweep")
	}
	for _, name := range []string{"fft", "ocean", "radix", "water"} {
		w, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		m := machineFor(t, w, 3, 1)
		res := runSerial(t, m)
		if res.Aborted {
			t.Fatalf("%s aborted", name)
		}
		if err := w.Verify(m.Image(), res.Output, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 7 {
		t.Fatalf("registered %d workloads, want 7", len(all))
	}
	paper := Paper()
	if len(paper) != 4 {
		t.Fatalf("paper set = %d workloads", len(paper))
	}
	wantOrder := []string{"barnes", "fft", "lu", "water"}
	for i, w := range paper {
		if w.Name != wantOrder[i] {
			t.Errorf("paper[%d] = %s", i, w.Name)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown workload lookup succeeded")
	}
	for _, w := range all {
		if w.Description == "" || w.InputDesc(1) == "" {
			t.Errorf("%s missing metadata", w.Name)
		}
	}
}

package core

import (
	"testing"

	"slacksim/internal/asm"
	"slacksim/internal/cpu"
	"slacksim/internal/workloads"
)

// TestBatchedSteppingDeterminism cross-checks coreTurn's batched inner loop
// against the single-cycle path it replaced: a paper workload run under the
// conservative schemes must produce a bit-identical simulation either way.
//
// The comparison covers the simulated outcome — end time, ROI cycles,
// workload output, warp counters, and every per-core counter that is a pure
// function of the simulated trajectory. Host-schedule-dependent counters
// are excluded on both sides of the comparison because they differ between
// *any* two parallel runs, batched or not: Cycles/IdleCycles/Skipped (the
// tick-versus-skip split of a stall depends on how stale the core's global
// snapshot was, and the final cycles race the done flag), the stall
// tallies incremented by redundant no-progress Ticks, BlockedParks, and
// the ROIStart* snapshots (a core notices the roiTime atomic flip at a
// host-interleaving-dependent point in its loop, so the Committed count
// captured then can differ by an instruction between runs).
func TestBatchedSteppingDeterminism(t *testing.T) {
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

	type outcome struct {
		endTime   int64
		roiCycles int64
		output    string
		timeWarps int64
		cohWarps  int64
		cores     []cpu.Stats
	}
	run := func(disable bool, s Scheme) outcome {
		t.Helper()
		batchDisabled = disable
		defer func() { batchDisabled = false }()
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
		r, err := m.RunParallel(s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Aborted {
			t.Fatalf("run aborted at %d cycles", r.EndTime)
		}
		if err := w.Verify(m.Image(), r.Output, 1); err != nil {
			t.Fatal(err)
		}
		o := outcome{
			endTime:   r.EndTime,
			roiCycles: r.ROICycles(),
			output:    r.Output,
			timeWarps: r.TimeWarps,
			cohWarps:  r.CoherenceWarps,
		}
		for _, st := range r.CoreStats {
			// Curated copy: only trajectory-determined counters.
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

	// The prime-window Quantum scheme stresses the unified barrier
	// detection: with batched stepping the global time crosses window
	// boundaries without landing on multiples of 7, so any reversion to the
	// old g%Window == 0 equality check would skip barriers and diverge (or
	// stall) here.
	q7 := Scheme{Kind: Quantum, Window: 7}
	for _, s := range []Scheme{SchemeCC, SchemeQ10, q7, SchemeL10, SchemeS9x} {
		batched := run(false, s)
		single := run(true, s)
		if batched.endTime != single.endTime {
			t.Errorf("%v: end time batched=%d single=%d", s, batched.endTime, single.endTime)
		}
		if batched.roiCycles != single.roiCycles {
			t.Errorf("%v: ROI cycles batched=%d single=%d", s, batched.roiCycles, single.roiCycles)
		}
		if batched.output != single.output {
			t.Errorf("%v: workload output differs", s)
		}
		if batched.timeWarps != single.timeWarps || batched.cohWarps != single.cohWarps {
			t.Errorf("%v: warps batched=(%d,%d) single=(%d,%d)", s,
				batched.timeWarps, batched.cohWarps, single.timeWarps, single.cohWarps)
		}
		for i := range batched.cores {
			if batched.cores[i] != single.cores[i] {
				t.Errorf("%v: core %d stats differ:\n batched: %+v\n single:  %+v",
					s, i, batched.cores[i], single.cores[i])
			}
		}
		t.Logf("%-4v end=%d roi=%d: batched and single-cycle runs identical", s, batched.endTime, batched.roiCycles)
	}
}

package core

import (
	"testing"

	"slacksim/internal/asm"
	"slacksim/internal/cpu"
	"slacksim/internal/workloads"
)

// TestPrefetcherAblation runs a streaming workload with and without the
// next-line prefetcher: results must stay correct and the prefetcher must
// cut execution time on sequential access patterns.
func TestPrefetcherAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("workload sweep")
	}
	w, err := workloads.Get("radix") // streaming histograms + scatter
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(w.Source(1), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(prefetch bool) *Result {
		cfg := smallConfig(4)
		cfg.MemSize = 64 << 20
		cfg.MaxCycles = 500_000_000
		cfg.CPU = cpu.DefaultConfig()
		cfg.CPU.Prefetch = prefetch
		m, err := NewMachine(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Init(m.Image(), 1); err != nil {
			t.Fatal(err)
		}
		res := runSerial(t, m)
		if res.Aborted {
			t.Fatal("aborted")
		}
		if err := w.Verify(m.Image(), res.Output, 1); err != nil {
			t.Fatal(err)
		}
		return res
	}
	off := run(false)
	on := run(true)
	var prefetches int64
	for _, st := range on.CoreStats {
		prefetches += st.Prefetches
	}
	t.Logf("prefetch off: %d cycles; on: %d cycles (%d prefetches issued)",
		off.EndTime, on.EndTime, prefetches)
	if prefetches == 0 {
		t.Fatal("prefetcher issued nothing on a streaming workload")
	}
	if on.EndTime >= off.EndTime {
		t.Errorf("next-line prefetch did not help a streaming workload: %d vs %d", on.EndTime, off.EndTime)
	}
	// The paper-config (prefetch off) must be unaffected by the feature's
	// existence.
	off2 := run(false)
	if off2.EndTime != off.EndTime {
		t.Fatalf("baseline not reproducible: %d vs %d", off2.EndTime, off.EndTime)
	}
}

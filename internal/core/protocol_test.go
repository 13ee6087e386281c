package core

import (
	"testing"

	"slacksim/internal/asm"
	"slacksim/internal/cache"
	"slacksim/internal/workloads"
)

// TestSnoopBusProtocol runs a workload with bus-based coherence timing
// (paper §2's alternative to the directory): results must verify, the
// conservative engine must stay exact against its own serial reference,
// and the serialised bus should cost cycles relative to the banked
// crossbar on a multi-threaded run.
func TestSnoopBusProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("workload sweep")
	}
	w, err := workloads.Get("ocean")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(w.Source(1), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(p cache.Protocol) *Machine {
		cfg := smallConfig(4)
		cfg.MemSize = 64 << 20
		cfg.MaxCycles = 200_000_000
		cfg.Cache.Protocol = p
		m, err := NewMachine(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Init(m.Image(), 1); err != nil {
			t.Fatal(err)
		}
		return m
	}

	dirRef := runSerial(t, mk(cache.Directory))
	busRef := runSerial(t, mk(cache.SnoopBus))
	if busRef.Aborted || dirRef.Aborted {
		t.Fatal("reference aborted")
	}
	t.Logf("directory: %d cycles, snoop bus: %d cycles", dirRef.EndTime, busRef.EndTime)
	if busRef.EndTime <= dirRef.EndTime {
		t.Errorf("serialised bus (%d) not slower than banked crossbar (%d)", busRef.EndTime, dirRef.EndTime)
	}

	// Conservative exactness holds under the bus protocol too.
	m := mk(cache.SnoopBus)
	res, err := m.RunParallel(SchemeS9x)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(m.Image(), res.Output, 1); err != nil {
		t.Fatal(err)
	}
	if res.EndTime != busRef.EndTime {
		t.Fatalf("bus S9* end %d != serial %d", res.EndTime, busRef.EndTime)
	}
}

// TestSixteenCoreTarget scales the target CMP to 16 cores (beyond the
// paper's 8) and checks the engine and a workload still behave.
func TestSixteenCoreTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("large target")
	}
	w, err := workloads.Get("radix")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(w.Source(1), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(16)
	cfg.MemSize = 64 << 20
	cfg.MaxCycles = 500_000_000
	m, err := NewMachine(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Init(m.Image(), 1); err != nil {
		t.Fatal(err)
	}
	res, err := m.RunParallel(SchemeS9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatal("aborted")
	}
	if err := w.Verify(m.Image(), res.Output, 1); err != nil {
		t.Fatal(err)
	}
}

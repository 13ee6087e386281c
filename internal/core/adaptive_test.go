package core

import (
	"testing"

	"slacksim/internal/asm"
	"slacksim/internal/event"
	"slacksim/internal/workloads"
)

// TestAdaptiveScheme runs a real workload under the adaptive scheme
// (DESIGN.md §7 extension) and checks correctness plus a bounded
// execution-time distortion between bounded-slack and unbounded behaviour.
func TestAdaptiveScheme(t *testing.T) {
	if testing.Short() {
		t.Skip("workload run")
	}
	w, err := workloads.Get("ocean")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(w.Source(1), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Machine {
		cfg := smallConfig(4)
		cfg.MemSize = 64 << 20
		cfg.MaxCycles = 100_000_000
		m, err := NewMachine(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Init(m.Image(), 1); err != nil {
			t.Fatal(err)
		}
		return m
	}
	ref := runSerial(t, mk())
	m := mk()
	res, err := m.RunParallel(SchemeA1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatal("adaptive run aborted")
	}
	if err := w.Verify(m.Image(), res.Output, 1); err != nil {
		t.Fatal(err)
	}
	ratio := float64(res.EndTime) / float64(ref.EndTime)
	t.Logf("adaptive: end=%d (serial %d, ratio %.3f) wall=%v warps=%d",
		res.EndTime, ref.EndTime, ratio, res.Wall, res.TimeWarps)
	if ratio < 0.8 || ratio > 1.5 {
		t.Fatalf("adaptive execution time ratio %.3f out of bounds", ratio)
	}
}

func TestAdaptiveParseAndValidate(t *testing.T) {
	s, err := ParseScheme("A1000")
	if err != nil || s != SchemeA1000 {
		t.Fatalf("ParseScheme(A1000) = %v, %v", s, err)
	}
	if s.Conservative() {
		t.Fatal("adaptive must not claim conservatism")
	}
	if s.String() != "A1000" {
		t.Fatalf("String = %q", s)
	}
	if (Scheme{Kind: Adaptive, Window: 0}).Validate() == nil {
		t.Fatal("A0 validated")
	}
}

func TestAdaptStateController(t *testing.T) {
	a := adaptState{window: 64}
	// High traffic: halve once the epoch elapses.
	a.events = int64(adaptEpoch) // rate 1.0 >> high
	a.adapt(adaptEpoch)
	if a.window != 32 {
		t.Fatalf("window after high-rate epoch = %d", a.window)
	}
	// Low traffic: double.
	a.events = 0
	a.adapt(2 * adaptEpoch)
	if a.window != 64 {
		t.Fatalf("window after low-rate epoch = %d", a.window)
	}
	// Mid traffic: hold.
	midRate := (adaptHighRate + adaptLowRate) / 2
	a.events = int64(midRate * adaptEpoch)
	a.adapt(3 * adaptEpoch)
	if a.window != 64 {
		t.Fatalf("window after mid-rate epoch = %d", a.window)
	}
	// Never below 1.
	a.window = 1
	a.events = int64(adaptEpoch)
	a.adapt(4 * adaptEpoch)
	if a.window != 1 {
		t.Fatalf("window floor broken: %d", a.window)
	}
}

// TestAdaptiveCountsShardEvents: the Adaptive controller's traffic rate is
// every event the round's visibility step processes, so on a sharded
// machine the memory requests its shards process count, not only the
// manager queue's system calls.
func TestAdaptiveCountsShardEvents(t *testing.T) {
	cfg := smallConfig(2)
	cfg.ManagerShards = 2
	m := mustMachine(t, sumProg, cfg)
	l := m.newMgrLoop(m.beginRun(SchemeA1000, 1), m.shardBackend())
	const n = 16
	for i := 0; i < n; i++ {
		// Consecutive lines interleave over the banks, so both shards
		// get requests.
		m.groups[0].outQ.MustPush(event.Event{Kind: event.KReadShared, Time: int64(i), Addr: uint64(i) * 64})
	}
	l.round()
	for s, h := range m.shards {
		if h.l2.Stats.Accesses == 0 {
			t.Fatalf("shard %d processed no request; the test is vacuous", s)
		}
	}
	if got := l.p.ad.events; got != n {
		t.Errorf("adaptive controller counted %d events, want the %d the shards processed", got, n)
	}
}

package core

import (
	"fmt"
	"testing"

	"slacksim/internal/metrics"
)

// Tests for memory-event latency attribution: every request stamped at
// Env.Send must be observed at delivery, under every driver, in both
// simulated cycles and host nanoseconds — and the parallel drivers must
// attribute manager rounds to the straggler core holding the min-tree.

func runWithMetrics(t *testing.T, driver string) (*metrics.Registry, *Result, int) {
	t.Helper()
	cfg := smallConfig(2)
	if driver == "sharded" {
		cfg.ManagerShards = 2
	}
	m := mustMachine(t, memProg, cfg)
	reg := metrics.NewRegistry()
	m.EnableMetrics(reg)
	var res *Result
	var err error
	if driver == "serial" {
		res, err = m.RunSerial()
	} else {
		res, err = m.RunParallel(SchemeS9)
	}
	if err != nil {
		t.Fatalf("%s: %v", driver, err)
	}
	return reg, res, cfg.NumCores
}

func TestMemLatencyAttribution(t *testing.T) {
	for _, driver := range []string{"serial", "parallel", "sharded"} {
		t.Run(driver, func(t *testing.T) {
			reg, res, n := runWithMetrics(t, driver)

			cyc := reg.Histogram("engine.mem.lat_cycles")
			host := reg.Histogram("engine.mem.lat_host_ns")
			if cyc.Count() == 0 {
				t.Fatal("no simulated-latency observations")
			}
			// Every stamped request is observed on both clocks.
			if cyc.Count() != host.Count() {
				t.Errorf("cycles count %d != host-ns count %d", cyc.Count(), host.Count())
			}
			// A memory round trip is never free.
			if min := cyc.Snapshot().Quantile(0.01); min <= 0 {
				t.Errorf("p1 simulated latency %d, want > 0", min)
			}

			// The per-core histograms partition the machine-wide one.
			var perCore int64
			for i := 0; i < n; i++ {
				perCore += reg.Histogram(fmt.Sprintf("engine.c%d.mem.lat_cycles", i)).Count()
			}
			if perCore != cyc.Count() {
				t.Errorf("per-core counts sum to %d, machine-wide %d", perCore, cyc.Count())
			}

			// Straggler attribution rides on every result, indexed by core;
			// only the parallel managers charge rounds.
			if len(res.Stragglers) != n {
				t.Fatalf("len(Stragglers) = %d, want %d", len(res.Stragglers), n)
			}
			var held int64
			for i, s := range res.Stragglers {
				if s.Core != i {
					t.Errorf("Stragglers[%d].Core = %d", i, s.Core)
				}
				held += s.HeldRounds
			}
			if driver == "serial" {
				if held != 0 {
					t.Errorf("serial driver charged %d straggler rounds", held)
				}
			} else if held == 0 {
				t.Error("parallel driver charged no straggler rounds")
			}
		})
	}
}

// TestLatencyStampsDisabled: with metrics off, events carry no stamps —
// the hot path must not pay for attribution nobody asked for.
func TestLatencyStampsDisabled(t *testing.T) {
	m := mustMachine(t, memProg, smallConfig(2))
	res, err := m.RunParallel(SchemeS9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stragglers != nil {
		t.Errorf("Stragglers populated without metrics: %+v", res.Stragglers)
	}
}

package core

import (
	"sort"
	"strings"
	"testing"

	"slacksim/internal/metrics"
)

// This file pins metric-name parity across the three drivers: a dashboard
// (or the Prometheus scrape behind it) built against one driver must keep
// working when the run switches engines. The serial, parallel, and
// sharded drivers must register and publish the same metric families; the
// sharded driver may only add its shard-queue instruments on top.

// metricNames runs prog under the given driver and returns the sorted
// registry names after the run.
func metricNames(t *testing.T, driver string) []string {
	t.Helper()
	cfg := smallConfig(2)
	switch driver {
	case "sharded":
		cfg.ManagerShards = 2
	case "remote":
		cfg.RemoteShards = 2
	}
	m := mustMachine(t, memProg, cfg)
	reg := metrics.NewRegistry()
	m.EnableMetrics(reg)
	var err error
	switch driver {
	case "serial":
		_, err = m.RunSerial()
	case "fused":
		_, err = m.RunFused(SchemeS9)
	case "remote":
		transports, join := startRemoteWorkers(1)
		_, err = m.RunRemoteSharded(SchemeS9, transports)
		for _, werr := range join() {
			if werr != nil {
				t.Errorf("worker exit: %v", werr)
			}
		}
	default:
		_, err = m.RunParallel(SchemeS9)
	}
	if err != nil {
		t.Fatalf("%s: %v", driver, err)
	}
	s := reg.Snapshot()
	var names []string
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func TestMetricNameParityAcrossDrivers(t *testing.T) {
	serial := metricNames(t, "serial")
	parallel := metricNames(t, "parallel")
	sharded := metricNames(t, "sharded")
	fused := metricNames(t, "fused")

	diff := func(a, b []string) []string {
		set := make(map[string]bool, len(b))
		for _, n := range b {
			set[n] = true
		}
		var out []string
		for _, n := range a {
			if !set[n] {
				out = append(out, n)
			}
		}
		return out
	}

	if d := diff(serial, parallel); len(d) != 0 {
		t.Errorf("serial-only metrics: %v", d)
	}
	if d := diff(parallel, serial); len(d) != 0 {
		t.Errorf("parallel-only metrics: %v", d)
	}
	// The sharded manager adds its shard-queue instruments and nothing
	// else; everything the parallel driver exports must be present.
	if d := diff(parallel, sharded); len(d) != 0 {
		t.Errorf("metrics lost under sharding: %v", d)
	}
	for _, n := range diff(sharded, parallel) {
		if !strings.Contains(n, "shard") {
			t.Errorf("unexpected sharded-only metric %q", n)
		}
	}
	// The fused driver shares the parallel driver's registry exactly: same
	// dashboards, no goroutine fabric, no extra instruments.
	if d := diff(parallel, fused); len(d) != 0 {
		t.Errorf("metrics lost under fused driver: %v", d)
	}
	if d := diff(fused, parallel); len(d) != 0 {
		t.Errorf("fused-only metrics: %v", d)
	}

	// So does the remote driver, under its wire, recovery and federated
	// worker instruments.
	remote := metricNames(t, "remote")
	if d := diff(parallel, remote); len(d) != 0 {
		t.Errorf("metrics lost under the remote driver: %v", d)
	}

	// The fabric's own ledger rows — sampled manager-round phases and the
	// group loop's turns and waits — carry the same names on every driver.
	for _, want := range []string{
		"engine.round.min_ns", "engine.round.drain_ns", "engine.round.visible_ns",
		"engine.round.notify_ns", "engine.round.slide_ns",
		"engine.group.turn_ns", "engine.group.yield_ns", "engine.group.park_ns",
	} {
		for driver, names := range map[string][]string{
			"serial": serial, "parallel": parallel, "sharded": sharded, "fused": fused, "remote": remote,
		} {
			if i := sort.SearchStrings(names, want); i == len(names) || names[i] != want {
				t.Errorf("%s registry missing %q", driver, want)
			}
		}
	}

	// The latency-attribution families must exist under every driver.
	for _, want := range []string{
		"engine.mem.lat_cycles", "engine.mem.lat_host_ns",
		"engine.c0.mem.lat_cycles", "engine.c1.mem.lat_host_ns",
	} {
		found := false
		for _, n := range serial {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("serial registry missing %q", want)
		}
	}
}

package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"slacksim/internal/bundle"
	"slacksim/internal/faultinject"
	"slacksim/internal/metrics"
	"slacksim/internal/remote"
	"slacksim/internal/trace"
)

// This file tests the fleet-observability surface of the remote backend:
// cross-process trace merging (worker chunks, clock offsets, wire flow
// events, supervision incidents), worker metrics federation, and the
// post-mortem crash bundles — all under the same net.Pipe chaos fleet as
// the recovery suite.

// TestRemoteFleetObservability runs a worker-kill chaos scenario with
// the full observability stack attached: the merged timeline must carry
// parent and worker tracks, paired wire flow events, and the recovery
// incident; the parent registry must hold worker-prefixed federated
// metrics; and the run must still complete bit-exact.
func TestRemoteFleetObservability(t *testing.T) {
	ref, m := oceanRemoteRef(t, SchemeCC)
	m.cfg.StallTimeout = 10 * time.Second
	reg := metrics.NewRegistry()
	m.EnableMetrics(reg)
	m.EnableTrace(trace.New())
	pf := newPipeFarm()
	opts := &RemoteOptions{
		Transports:      pf.transports(2),
		Redial:          pf.dial,
		Kill:            pf.kill,
		RetryBackoff:    remote.Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
		CheckpointEvery: 8,
	}
	if err := m.EnableFaults(faultinject.NewPlan(
		faultinject.Fault{Kind: faultinject.WorkerKill, Core: faultinject.ShardWorker(0), At: 10000},
	)); err != nil {
		t.Fatal(err)
	}
	res, err := m.RunRemoteShardedOpts(SchemeCC, opts)
	if err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	pf.join(t)
	assertRemoteExact(t, "CC/fleet-observability", res, ref)
	if res.Recovery.Reconnects < 1 {
		t.Fatalf("reconnects = %d, want >= 1", res.Recovery.Reconnects)
	}

	// Trace correlation: parent track plus at least both workers' epoch-0
	// tracks and the killed worker's resumed incarnation.
	procs := m.TraceProcs()
	if len(procs) < 3 {
		t.Fatalf("TraceProcs = %d processes, want >= 3 (parent + workers)", len(procs))
	}
	if procs[0].PID != 0 || procs[0].Name != "parent" {
		t.Errorf("proc 0 = %+v, want the parent at pid 0", procs[0])
	}
	names := map[string]bool{}
	var offsets int
	for _, p := range procs[1:] {
		names[p.Name] = true
		if p.OffsetNS != 0 {
			offsets++
		}
	}
	if !names["worker 0"] || !names["worker 1"] {
		t.Errorf("worker tracks missing: %v", names)
	}
	if offsets == 0 {
		t.Error("no worker track carries a clock-offset estimate")
	}

	// Supervision incidents: the kill must surface as a reconnecting →
	// recovered pair for the merged timeline.
	ins := m.TraceIncidents()
	if len(ins) == 0 {
		t.Fatal("no supervision incidents recorded")
	}
	var recovered bool
	for _, in := range ins {
		if strings.Contains(in.Name, "recovered") {
			recovered = true
		}
	}
	if !recovered {
		t.Errorf("incidents carry no recovery: %v", ins)
	}

	// The merged export: process metadata, both wire flow endpoints.
	var buf bytes.Buffer
	if err := m.WriteTraceChrome(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"process_name", "worker 0", "wire_send", "wire_recv", `"ph": "s"`, `"ph": "f"`} {
		if !strings.Contains(out, want) {
			t.Errorf("merged trace missing %q", want)
		}
	}

	// Metrics federation: the final FStats snapshots must fold under
	// per-worker prefixes, shard hierarchy counters included.
	snap := reg.Snapshot()
	fed := 0
	for name := range snap.Gauges {
		if strings.HasPrefix(name, "worker0.") || strings.HasPrefix(name, "worker1.") {
			fed++
		}
	}
	for name := range snap.Counters {
		if strings.HasPrefix(name, "worker0.") || strings.HasPrefix(name, "worker1.") {
			fed++
		}
	}
	if fed == 0 {
		t.Error("no worker-prefixed metrics federated into the parent registry")
	}
	found := false
	for _, w := range []int{0, 1} {
		for _, sh := range []int{0, 1} {
			if _, ok := snap.Gauges[fmt.Sprintf("worker%d.shard%d.cache.l2.accesses", w, sh)]; ok {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("federated L2 shard counters missing; gauges: %d", len(snap.Gauges))
	}
}

// TestRemoteBundleOnAbandon: a run that completes but abandons a worker
// must leave a validating crash bundle with the recovery artifacts.
func TestRemoteBundleOnAbandon(t *testing.T) {
	ref, m := oceanRemoteRef(t, SchemeCC)
	m.cfg.StallTimeout = 10 * time.Second
	m.EnableMetrics(metrics.NewRegistry())
	m.EnableTrace(trace.New())
	dir := t.TempDir()
	m.SetBundleDir(dir)
	pf := newPipeFarm()
	opts := &RemoteOptions{
		Transports:  pf.transports(2),
		RetryBudget: -1, // no retries: first failure abandons
	}
	if err := m.EnableFaults(faultinject.NewPlan(
		faultinject.Fault{Kind: faultinject.ConnDrop, Core: faultinject.ShardWorker(1), At: 8000},
	)); err != nil {
		t.Fatal(err)
	}
	res, err := m.RunRemoteShardedOpts(SchemeCC, opts)
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	pf.join(t)
	assertRemoteExact(t, "CC/bundle-abandon", res, ref)
	if res.Recovery.AbandonedWorkers != 1 {
		t.Fatalf("abandoned workers = %d, want 1", res.Recovery.AbandonedWorkers)
	}

	path := m.BundlePath()
	if path == "" {
		t.Fatal("no bundle written for the abandoned-worker outcome")
	}
	man, err := bundle.Validate(path)
	if err != nil {
		t.Fatalf("bundle does not validate: %v", err)
	}
	if man.Driver != "remote" || man.Session == "" {
		t.Errorf("manifest meta = %+v", man)
	}
	if !strings.Contains(man.Reason, "abandoned") {
		t.Errorf("manifest reason = %q, want the abandoned-worker cause", man.Reason)
	}
	got := map[string]bool{}
	for _, f := range man.Files {
		got[f.Name] = true
	}
	for _, want := range []string{"stall.json", "error.txt", "trace.json", "metrics.prom", "recovery.json", "config.json"} {
		if !got[want] {
			t.Errorf("bundle missing %s (has %v)", want, got)
		}
	}
}

// TestBundleOnLocalFailure: the bundle hook must cover the local drivers
// too — a contained core panic under the parallel driver writes one,
// and a second run in the same directory gets its own timestamped dir.
func TestBundleOnLocalFailure(t *testing.T) {
	m := mustMachine(t, longProg, smallConfig(2))
	m.EnableMetrics(metrics.NewRegistry())
	dir := t.TempDir()
	m.SetBundleDir(dir)
	if err := m.EnableFaults(faultinject.NewPlan(
		faultinject.Fault{Kind: faultinject.Panic, Core: 0, At: 500},
	)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunParallel(SchemeS9); err == nil {
		t.Fatal("injected panic did not fail the run")
	}
	path := m.BundlePath()
	if path == "" {
		t.Fatal("no bundle written for the failed parallel run")
	}
	man, err := bundle.Validate(path)
	if err != nil {
		t.Fatalf("bundle does not validate: %v", err)
	}
	if man.Driver != "parallel" {
		t.Errorf("manifest driver = %q, want parallel", man.Driver)
	}
	names := map[string]bool{}
	for _, f := range man.Files {
		names[f.Name] = true
	}
	if !names["stall.json"] || !names["metrics.prom"] || !names["config.json"] {
		t.Errorf("bundle files = %v", names)
	}
	if names["recovery.json"] {
		t.Error("local bundle must not carry the remote recovery artifact")
	}
}

// TestBundleDisabledByDefault: without SetBundleDir a failure writes
// nothing and BundlePath stays empty.
func TestBundleDisabledByDefault(t *testing.T) {
	m := mustMachine(t, longProg, smallConfig(2))
	if err := m.EnableFaults(faultinject.NewPlan(
		faultinject.Fault{Kind: faultinject.Panic, Core: 0, At: 500},
	)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunParallel(SchemeS9); err == nil {
		t.Fatal("injected panic did not fail the run")
	}
	if p := m.BundlePath(); p != "" {
		t.Errorf("BundlePath = %q without SetBundleDir", p)
	}
}

package core

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"slacksim/internal/asm"
	"slacksim/internal/faultinject"
	"slacksim/internal/introspect"
	"slacksim/internal/metrics"
	"slacksim/internal/remote"
	"slacksim/internal/workloads"
)

// This file is the chaos suite for the fault-tolerant distributed
// backend: every wire-level fault kind is injected mid-run against real
// worker sessions, and the recovered (or degraded) run is held to the
// in-process sharded reference bit for bit. The workers run in-process
// over net.Pipe — which honors deadlines and delivers the same in-order
// byte stream TCP would — so the whole journal/checkpoint/replay
// machinery is exercised end to end, minus only the kernel's socket
// buffers.

// pipeFarm is the chaos tests' worker fleet: it serves worker sessions
// over net.Pipe and can re-serve one (the Redial hook) or sever one from
// the worker side (the Kill hook — the closest net.Pipe analog of
// SIGKILL, since the process just vanishes from the peer's perspective).
type pipeFarm struct {
	mu   sync.Mutex
	live map[int]net.Conn // worker id -> current worker-side end
	wg   sync.WaitGroup
}

func newPipeFarm() *pipeFarm { return &pipeFarm{live: map[int]net.Conn{}} }

// dial starts a fresh worker session and returns the parent-side end.
// Session exit errors are discarded: a killed session dies with a read
// error by design, and the run's correctness is asserted from the parent
// side (bit-exactness against the in-process reference).
func (pf *pipeFarm) dial(worker int) (remote.Transport, error) {
	p, q := pipe()
	pf.mu.Lock()
	pf.live[worker] = q
	pf.mu.Unlock()
	pf.wg.Add(1)
	go func() {
		defer pf.wg.Done()
		ServeRemoteShards(q)
	}()
	return p, nil
}

func (pf *pipeFarm) kill(worker int) error {
	pf.mu.Lock()
	c := pf.live[worker]
	pf.mu.Unlock()
	if c != nil {
		c.Close()
	}
	return nil
}

// transports dials the initial fleet.
func (pf *pipeFarm) transports(nw int) []remote.Transport {
	out := make([]remote.Transport, nw)
	for i := 0; i < nw; i++ {
		out[i], _ = pf.dial(i)
	}
	return out
}

// join waits for every session ever served to exit (leak check).
func (pf *pipeFarm) join(t *testing.T) {
	t.Helper()
	done := make(chan struct{})
	go func() { pf.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Error("worker sessions still running 20s after the run")
	}
}

// oceanRemoteRef builds the chaos tests' workload machine pair: the
// in-process sharded reference result and a fresh remote machine for the
// scheme under test.
func oceanRemoteRef(t *testing.T, s Scheme) (*Result, *Machine) {
	t.Helper()
	w, err := workloads.Get("ocean")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(w.Source(1), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const shards = 2
	ref, err := shardedMachine(t, prog, w, 4, shards).RunParallel(s)
	if err != nil {
		t.Fatalf("%v: in-process reference: %v", s, err)
	}
	return ref, remoteMachine(t, prog, w, 4, shards)
}

// runChaos injects the given wire faults into a remote ocean run with
// full recovery hooks and asserts it completes bit-exact. Returns the
// recovery stats for fault-specific assertions. The run is bounded: the
// acceptance criterion is recovery within twice the stall timeout, and
// the watermark wait enforces exactly that, so a hung recovery surfaces
// as a test failure here, not a hang.
func runChaos(t *testing.T, s Scheme, opts *RemoteOptions, faults ...faultinject.Fault) *RecoveryStats {
	t.Helper()
	ref, m := oceanRemoteRef(t, s)
	m.cfg.StallTimeout = 10 * time.Second
	before := runtime.NumGoroutine()
	pf := newPipeFarm()
	opts.Transports = pf.transports(2)
	opts.Redial = pf.dial
	opts.Kill = pf.kill
	if opts.RetryBackoff == (remote.Backoff{}) {
		opts.RetryBackoff = remote.Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond}
	}
	if err := m.EnableFaults(faultinject.NewPlan(faults...)); err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := m.RunRemoteShardedOpts(s, opts)
		ch <- outcome{res, err}
	}()
	var res *Result
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatalf("%v: chaos run failed: %v", s, o.err)
		}
		res = o.res
	case <-time.After(60 * time.Second):
		t.Fatalf("%v: chaos run hung", s)
	}
	pf.join(t)
	assertRemoteExact(t, fmt.Sprintf("%v/chaos", s), res, ref)
	if res.Recovery == nil {
		t.Fatalf("%v: remote run carries no recovery stats", s)
	}
	if n := settleGoroutines(before); n > before {
		t.Errorf("%v: goroutine leak: %d before, %d after", s, before, n)
	}
	return res.Recovery
}

// TestRemoteConnDropRecovery severs each worker's connection once
// mid-run — one early (synthetic-checkpoint replay-from-scratch path)
// and one late (real checkpoint, truncated journal) — for every
// deterministic scheme class: CC (tightest coupling), Q10 (quantum
// barriers), S9* (sampled windows). Both workers must resume their
// sessions and the result must be bit-identical to the in-process run.
func TestRemoteConnDropRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("workload sweep")
	}
	// Checkpointing is disabled so the journal keeps the full history:
	// recovery must then replay from genesis, which pins the replay
	// counter deterministically (with checkpoints enabled a drop can land
	// right after a truncation and legitimately replay nothing — the
	// WorkerKill test covers the checkpointed path).
	for _, s := range []Scheme{SchemeCC, SchemeQ10, SchemeS9x} {
		rec := runChaos(t, s, &RemoteOptions{CheckpointEvery: -1},
			faultinject.Fault{Kind: faultinject.ConnDrop, Core: faultinject.ShardWorker(0), At: 800},
			faultinject.Fault{Kind: faultinject.ConnDrop, Core: faultinject.ShardWorker(1), At: 20000},
		)
		if rec.Reconnects < 2 {
			t.Errorf("%v: reconnects = %d, want >= 2 (both workers dropped)", s, rec.Reconnects)
		}
		if rec.AbandonedWorkers != 0 {
			t.Errorf("%v: %d workers abandoned with a working Redial", s, rec.AbandonedWorkers)
		}
		if rec.ReplayedBatches < 1 {
			t.Errorf("%v: replayed batches = %d, want >= 1 (the early drop predates any checkpoint)", s, rec.ReplayedBatches)
		}
	}
}

// TestRemoteWorkerKillRecovery kills the worker process analog (the
// worker-side end vanishes, no goodbye) through the WorkerKill fault's
// Kill hook, mid-run, after checkpoints exist.
func TestRemoteWorkerKillRecovery(t *testing.T) {
	rec := runChaos(t, SchemeCC, &RemoteOptions{CheckpointEvery: 8},
		faultinject.Fault{Kind: faultinject.WorkerKill, Core: faultinject.ShardWorker(0), At: 10000},
	)
	if rec.Reconnects < 1 {
		t.Errorf("reconnects = %d, want >= 1", rec.Reconnects)
	}
	if rec.Checkpoints < 1 {
		t.Errorf("checkpoints = %d, want >= 1 (CheckpointEvery: 8)", rec.Checkpoints)
	}
	// ReplayedBatches is deliberately not asserted: a kill that lands
	// right after a checkpoint truncation leaves a legitimately empty
	// journal. The early drop in TestRemoteConnDropRecovery pins it.
}

// TestRemoteFrameCorruptRecovery arms a one-shot CRC failure on the
// parent's receive path: the corrupt frame must not reach decode, the
// receiver must treat the connection as broken, and the supervisor must
// recover it — a bit flip costs a reconnect, never corrupt state.
func TestRemoteFrameCorruptRecovery(t *testing.T) {
	rec := runChaos(t, SchemeCC, &RemoteOptions{},
		faultinject.Fault{Kind: faultinject.FrameCorrupt, Core: faultinject.ShardWorker(1), At: 5000},
	)
	if rec.Reconnects < 1 {
		t.Errorf("reconnects = %d, want >= 1", rec.Reconnects)
	}
}

// TestRemoteHeartbeatStallRecovery simulates a silent hang: the worker
// keeps talking but the parent stops crediting its frames as liveness,
// so the supervisor's staleness detector must escalate to dead and tear
// the connection down itself within ~4 heartbeat intervals. The interval
// is short enough for that to fit well inside the run after the stall: on
// one host thread the whole run takes ~150 ms, and at 30 ms intervals it
// often ended before the detector's 120 ms were up.
func TestRemoteHeartbeatStallRecovery(t *testing.T) {
	rec := runChaos(t, SchemeCC, &RemoteOptions{Heartbeat: 10 * time.Millisecond},
		faultinject.Fault{Kind: faultinject.HeartbeatStall, Core: faultinject.ShardWorker(0), At: 5000},
	)
	if rec.Reconnects < 1 {
		t.Errorf("reconnects = %d, want >= 1", rec.Reconnects)
	}
}

// TestRemoteRetryBudgetExhausted: when every redial attempt fails, the
// worker must be abandoned after exactly the budgeted attempts and its
// shards migrated in-process — the run completes bit-exact instead of
// erroring out.
func TestRemoteRetryBudgetExhausted(t *testing.T) {
	ref, m := oceanRemoteRef(t, SchemeCC)
	m.cfg.StallTimeout = 10 * time.Second
	before := runtime.NumGoroutine()
	pf := newPipeFarm()
	var redials int64
	var mu sync.Mutex
	opts := &RemoteOptions{
		Transports: pf.transports(2),
		Redial: func(worker int) (remote.Transport, error) {
			mu.Lock()
			redials++
			mu.Unlock()
			return nil, fmt.Errorf("chaos: worker %d unreachable", worker)
		},
		RetryBudget:     2,
		RetryBackoff:    remote.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
		CheckpointEvery: 16,
	}
	if err := m.EnableFaults(faultinject.NewPlan(
		faultinject.Fault{Kind: faultinject.ConnDrop, Core: faultinject.ShardWorker(0), At: 10000},
	)); err != nil {
		t.Fatal(err)
	}
	res, err := m.RunRemoteShardedOpts(SchemeCC, opts)
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	pf.join(t)
	rec := res.Recovery
	if rec.AbandonedWorkers != 1 {
		t.Errorf("abandoned workers = %d, want 1", rec.AbandonedWorkers)
	}
	if rec.MigratedShards != 1 {
		t.Errorf("migrated shards = %d, want 1 (worker 0 of 2 owns one shard)", rec.MigratedShards)
	}
	if rec.Reconnects != 0 {
		t.Errorf("reconnects = %d with a failing Redial", rec.Reconnects)
	}
	mu.Lock()
	got := redials
	mu.Unlock()
	if got != 2 {
		t.Errorf("redial attempts = %d, want exactly the budget (2)", got)
	}
	assertRemoteExact(t, "CC/budget-exhausted", res, ref)
	if n := settleGoroutines(before); n > before {
		t.Errorf("goroutine leak: %d before, %d after", before, n)
	}
}

// TestRemoteRecoveryForensics: a chaos run's supervision state must be
// visible in the introspection snapshot and the forensic report — the
// abandoned worker shows up by name with its migrated shards.
func TestRemoteRecoveryForensics(t *testing.T) {
	_, m := oceanRemoteRef(t, SchemeCC)
	m.cfg.StallTimeout = 10 * time.Second
	m.EnableMetrics(metrics.NewRegistry())
	srv, err := introspect.New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := m.EnableIntrospection(srv); err != nil {
		t.Fatal(err)
	}
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
	if _, err := m.RunRemoteShardedOpts(SchemeCC, opts); err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	pf.join(t)
	reports := m.remoteWorkerReports()
	if len(reports) != 2 {
		t.Fatalf("%d worker reports, want 2", len(reports))
	}
	states := map[string]int{}
	for _, w := range reports {
		states[w.State]++
	}
	if states["abandoned"] != 1 {
		t.Errorf("worker states = %v, want exactly one abandoned", states)
	}
	snap := m.slackSnapshot()
	if len(snap.Remote) != 2 {
		t.Errorf("introspection snapshot lists %d workers, want 2", len(snap.Remote))
	}
	rep := m.snapshot(false, 0)
	if len(rep.Remote) != 2 {
		t.Fatalf("stall report lists %d workers, want 2", len(rep.Remote))
	}
	text := rep.Text()
	if !strings.Contains(text, "remote worker") || !strings.Contains(text, "abandoned") {
		t.Errorf("forensic text misses the supervision state:\n%s", text)
	}
}

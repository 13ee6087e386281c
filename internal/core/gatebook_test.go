package core

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"slacksim/internal/asm"
	"slacksim/internal/metrics"
)

// This file pins down gate elision (docs/engine.md, "Gating only what is
// pending"): the gate book's verdicts, how few gates a remote run raises,
// and that a worker left without gates is kept alive by the parent.

// TestGateBook walks one processor's book through note/raise sequences: a
// gate goes only when it covers a routed request (strictly below the
// bound), each bound is considered once, and the unbounded gate of an
// optimistic scheme goes exactly once, after which nothing is recorded.
func TestGateBook(t *testing.T) {
	type step struct {
		note    []int64 // requests routed before the raise
		bound   int64
		want    bool    // raise's verdict
		pending []int64 // what the book holds afterwards
	}
	for _, tc := range []struct {
		name           string
		steps          []step
		raised, elided int64
	}{
		{"out-of-order timestamps", []step{
			{note: []int64{30, 10, 20}, bound: 15, want: true, pending: []int64{30, 20}},
			{bound: 25, want: true, pending: []int64{30}},
			{bound: 31, want: true},
		}, 3, 0},
		{"several requests below one bound", []step{
			{note: []int64{3, 7, 5}, bound: 10, want: true},
			{bound: 12},
			{note: []int64{12}, bound: 13, want: true},
		}, 2, 1},
		{"a request at the bound is not covered", []step{
			{note: []int64{10}, bound: 10, pending: []int64{10}},
			{bound: 11, want: true},
		}, 1, 1},
		{"each bound is considered once", []step{
			{note: []int64{50}, bound: 20, pending: []int64{50}},
			{bound: 20, pending: []int64{50}},
			{bound: 19, pending: []int64{50}},
			{bound: 51, want: true},
		}, 1, 1},
		{"unbounded gate goes once and stops recording", []step{
			{note: []int64{5}, bound: math.MaxInt64, want: true},
			{note: []int64{6, 7, 8}, bound: math.MaxInt64},
			{note: []int64{9}, bound: math.MaxInt64},
		}, 1, 0},
		{"unbounded gate with nothing pending", []step{
			{bound: 100},
			{bound: math.MaxInt64, want: true},
		}, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			b := &gateBook{procs: make([]gatedProc, 2), raised: reg.Counter("r"), elided: reg.Counter("e")}
			gate := int64(0)
			for i, st := range tc.steps {
				for _, ts := range st.note {
					b.note(1, ts)
				}
				if got := b.raise(1, st.bound); got != st.want {
					t.Fatalf("step %d: raise(%d) = %v, want %v", i, st.bound, got, st.want)
				}
				if st.want {
					gate = st.bound
				}
				pr := b.procs[1]
				if pr.gate != gate {
					t.Errorf("step %d: gate %d, want %d", i, pr.gate, gate)
				}
				if !slices.Equal(pr.pending, st.pending) && len(pr.pending)+len(st.pending) > 0 {
					t.Errorf("step %d: pending %v, want %v", i, pr.pending, st.pending)
				}
			}
			if p0 := b.procs[0]; p0.gate != 0 || p0.seen != 0 || len(p0.pending) != 0 {
				t.Errorf("untouched processor changed: %+v", p0)
			}
			if r, e := reg.Counter("r").Value(), reg.Counter("e").Value(); r != tc.raised || e != tc.elided {
				t.Errorf("raised/elided = %d/%d, want %d/%d", r, e, tc.raised, tc.elided)
			}
		})
	}
}

// TestGateCountersPerDriver: engine.gates.{raised,elided} exist on every
// driver, stay zero where the manager has no processors to gate — the
// sharded driver processes its shards inline — and account for every gate
// the remote manager considered.
func TestGateCountersPerDriver(t *testing.T) {
	for _, driver := range []string{"serial", "parallel", "fused", "sharded", "remote"} {
		t.Run(driver, func(t *testing.T) {
			cfg, run := driverConfig(driver, 2)
			m := mustMachine(t, threadsProg, cfg)
			reg := metrics.NewRegistry()
			m.EnableMetrics(reg)
			if res := runDriver(t, m, run, SchemeS9x); res.Output != expectTotal(2) {
				t.Fatalf("output %q", res.Output)
			}
			c := reg.Snapshot().Counters
			raised, okR := c["engine.gates.raised"]
			elided, okE := c["engine.gates.elided"]
			if !okR || !okE {
				t.Fatalf("gate counters not registered: %v", c)
			}
			gated := driver == "remote"
			if gated != (raised > 0) || gated != (elided > 0) {
				t.Errorf("raised %d, elided %d on the %s driver", raised, elided, driver)
			}
		})
	}
}

// TestRemoteGatesOnlyWithTraffic: on a conservative remote run a worker is
// gated only for windows that cover a request routed to it, so the gate
// frames on the wire are bounded by the routed traffic and number well
// under one per global-time advance — where gating every worker on every
// advance would send two — and the run stays bit-exact.
func TestRemoteGatesOnlyWithTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("workload run")
	}
	ref, m := oceanRemoteRef(t, SchemeS9x)
	reg := metrics.NewRegistry()
	m.EnableMetrics(reg)
	const nw = 2
	transports, join := startRemoteWorkers(nw)
	res, err := m.RunRemoteSharded(SchemeS9x, transports)
	if err != nil {
		t.Fatal(err)
	}
	for _, werr := range join() {
		if werr != nil {
			t.Errorf("worker exit: %v", werr)
		}
	}
	assertRemoteExact(t, "S9*/gated", res, ref)

	snap := reg.Snapshot()
	gates := int64(0) // FGate frames the workers received
	for i := 0; i < nw; i++ {
		gates += snap.Counters[fmt.Sprintf("worker%d.worker.gates", i)]
	}
	raised, elided := snap.Counters["engine.gates.raised"], snap.Counters["engine.gates.elided"]
	advances := snap.Counters["engine.global.advances"]
	p := res.Wire.Parent
	// Every parent frame that is not a batch is a gate, a handshake, a
	// checkpoint ack, the finish, or a keepalive heartbeat.
	keepalives := p.FramesSent - p.BatchesSent - gates - 2*nw - res.Recovery.Checkpoints
	t.Logf("gate frames %d (raised %d, elided %d), batches %d, events %d, keepalives %d, global advances %d",
		gates, raised, elided, p.BatchesSent, p.EventsSent, keepalives, advances)
	if gates != raised {
		t.Errorf("workers received %d gates, the book raised %d", gates, raised)
	}
	if keepalives < 0 {
		t.Errorf("parent frames unaccounted for: %d", keepalives)
	}
	// Each raised gate covers at least one routed request, and no request is
	// covered twice. (Not one gate per batch: a batch's requests can straddle
	// successive bounds, and at GOMAXPROCS=1 the batches are few and large.)
	if gates > p.EventsSent {
		t.Errorf("%d gate frames for %d routed requests", gates, p.EventsSent)
	}
	if elided == 0 || 10*gates >= 4*advances {
		t.Errorf("%d gate frames (%d elided) is not under 40%% of %d global advances", gates, elided, advances)
	}
}

// idleLoopProg is an L1-resident compute loop: after its first few fetch
// misses neither memory shard sees a request for the rest of the run.
const idleLoopProg = `
main:
    li   r8, 0
    li   r9, 1000000
loop:
    addi r8, r8, 1
    blt  r8, r9, loop
    li   a0, 0
    syscall 0
`

// TestRemoteIdleWorkerNotOrphaned: with gates elided, a worker whose shards
// get no traffic hears no FGate at all, and a worker that hears nothing for
// twice the stall timeout exits as orphaned. The parent's keepalive
// heartbeat, and the worker's answer to it, must hold both ends of the
// connection through a silence many stall timeouts long, so the run
// finishes bit-exact without a single reconnect.
func TestRemoteIdleWorkerNotOrphaned(t *testing.T) {
	if testing.Short() {
		t.Skip("timed run")
	}
	const stall = 50 * time.Millisecond
	prog, err := asm.Assemble(idleLoopProg, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := shardedMachine(t, prog, nil, 2, 2).RunParallel(SchemeS9x)
	if err != nil {
		t.Fatal(err)
	}
	m := remoteMachine(t, prog, nil, 2, 2)
	m.cfg.StallTimeout = stall
	pf := newPipeFarm()
	// Heartbeats at the stall timeout: the parent declares a worker dead
	// after four intervals without a frame from it, so a keepalive that
	// the worker does not answer fails the run as surely as no keepalive.
	res, err := m.RunRemoteShardedOpts(SchemeS9x, &RemoteOptions{
		Transports: pf.transports(2), Redial: pf.dial, Heartbeat: stall,
	})
	if err != nil {
		t.Fatal(err)
	}
	pf.join(t)
	assertRemoteExact(t, "S9*/idle", res, ref)
	if res.Wall < 4*stall {
		t.Fatalf("run took %v; too short to outlast the %v orphan timeout", res.Wall, 2*stall)
	}
	if rec := res.Recovery; rec.Reconnects != 0 || rec.AbandonedWorkers != 0 {
		t.Errorf("idle workers lost: %d reconnects, %d abandoned", rec.Reconnects, rec.AbandonedWorkers)
	}
}

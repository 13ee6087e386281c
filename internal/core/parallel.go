package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"slacksim/internal/faultinject"
)

// RunParallel executes the simulation on K = min(GOMAXPROCS, NumCores) host
// goroutines, each driving a contiguous group of target cores (group.go),
// paced by the given slack scheme. Unsharded, the calling goroutine is the
// first group and the groups share the simulation manager's work; with
// ManagerShards > 1 the caller is the manager, next to the K groups and the
// shard workers. Unsharded at K = 1 it is RunFused.
func (m *Machine) RunParallel(s Scheme) (*Result, error) {
	return m.runPaced(s, runtime.GOMAXPROCS(0))
}

// RunFused executes the simulation entirely on the calling goroutine: all
// target cores run inline as a cooperative round-robin under the slack
// invariant (Global <= Local(i) <= MaxLocal(i)), interleaved with the
// manager's rounds. It is grouped execution at K = 1 whatever GOMAXPROCS
// is — exactly what RunParallel does on one host thread — for the
// scarce-host-core regime (the paper's Table 2 configuration: the whole
// parallel engine on one host core), where the threaded fabric — per-
// publication min-tree maintenance, rings, the manager's epoch and
// wake-ups — is pure overhead: with a single runner there is nothing to
// synchronise, so the run replaces every atomic, park and cross-goroutine
// ring on the hot path with plain locals and slice appends (Machine.fused).
//
//   - Core->manager transfer: Env.Send pushes straight into the manager's
//     GQ (the heap's (Time, Core, Seq) order makes the result independent
//     of push order, so this is exact).
//   - Manager->core transfer: replies append to a plain per-core slice
//     (fusedIn) instead of the InQ ring + notify path.
//   - Global time: a direct min over the local clocks (minLocal) instead
//     of the min-tree.
//   - Parks: none. A core with nothing to do is simply skipped this pass;
//     the manager's round always runs next.
//
// Scheme semantics are the parallel driver's by construction: the lone
// group runs the same runGroup, coreTurn and manager round as K groups do.
// Because the round-robin is a particular legal schedule of the parallel
// engine and conservative schemes are schedule-invariant, CC/Q/L/S* runs
// are bit-exact against both RunSerial and RunParallel at any K (the
// determinism suite enforces this).
//
// Pacing atomics (local, maxLocal, global, liveGQ) are still stored — once
// per turn or round, not per cycle — so forensics snapshots, the sampled
// auditor, and the live introspection views keep working unchanged.
func (m *Machine) RunFused(s Scheme) (*Result, error) {
	if m.cfg.ManagerShards > 1 || m.cfg.RemoteShards > 0 {
		return nil, fmt.Errorf("core: RunFused supports only the unsharded in-process manager (ManagerShards=%d RemoteShards=%d)",
			m.cfg.ManagerShards, m.cfg.RemoteShards)
	}
	return m.runPaced(s, 1)
}

// runPaced is RunParallel on at most k groups.
func (m *Machine) runPaced(s Scheme, k int) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	p := m.beginRun(s, k)

	// Every goroutine of the run (this one included) is contained: a panic
	// anywhere inside the simulation is recorded as a SimError, the run is
	// cancelled (done + wakeAll, so every peer unparks and joins), and the
	// error is returned below — no goroutine leaks, no host-process crash.
	var wg sync.WaitGroup
	if m.shards != nil {
		m.spawnGroups(&wg, 0, nil)
		be := m.startShards(&wg)
		func() {
			defer m.containPanic(faultinject.Manager, "manager")
			m.runManager(p, be)
		}()
	} else {
		toGQ := m.gq.Push
		be := mgrBackend{drain: func(int64) bool { return m.drainDirty(toGQ) }, deadlockSound: true}
		if m.fused {
			be.drain = func(int64) bool { return false } // Env.Send pushed to the GQ
		}
		mgr := m.newMgrLoop(p, be)
		m.spawnGroups(&wg, 1, mgr)
		m.runGroup(&m.groups[0], mgr)
	}
	m.wakeAll()
	wg.Wait()
	return m.finishRun(start)
}

// Interrupt requests a graceful stop of an in-flight parallel run from
// another goroutine (a signal handler, typically). The manager and core
// loops observe done at their next poll, unwind through the normal join
// path — final drain, stats fold, remote shutdown — and Run* returns an
// aborted Result. Safe to call more than once, and before or after the
// run; a no-op for runs that already finished.
func (m *Machine) Interrupt() {
	m.intr.Store(true)
	m.done.Store(true)
	m.wakeAll()
}

// bumpMgrEpoch publishes core-side activity to the manager: a clock
// publication, an OutQ push, or a kernel grant. The epoch store comes
// first so a manager checking the epoch before parking either sees the
// bump (and stays up) or parks with the flag already visible to us — in
// which case the channel send below wakes it. The Dekker pairing mirrors
// parkGroup/wake.
func (m *Machine) bumpMgrEpoch() {
	m.mgrEpoch.v.Add(1)
	if m.mgrParked.Load() != 0 {
		m.wakeManager()
	}
}

// wakeManager delivers a non-blocking wake token to a parked manager.
func (m *Machine) wakeManager() {
	select {
	case m.mgrWake <- struct{}{}:
	default:
	}
}

package core

import (
	"sync"
	"time"

	"slacksim/internal/faultinject"
)

// RunParallel executes the simulation on K = min(GOMAXPROCS, NumCores) host
// goroutines, each driving a contiguous group of target cores (group.go),
// paced by the given slack scheme. Unsharded, the calling goroutine is the
// first group and the groups share the simulation manager's work; with
// ManagerShards > 1 the caller is the manager, next to the K groups and the
// shard workers.
func (m *Machine) RunParallel(s Scheme) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	p := m.beginRun(s)

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

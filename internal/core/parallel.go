package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// RunParallel executes the simulation on K = min(GOMAXPROCS, NumCores) host
// goroutines, each driving a contiguous group of target cores (group.go),
// paced by the given slack scheme. The calling goroutine is the first
// group, and the groups share the simulation manager's work, the memory
// shards' included (sharded.go). At K = 1 it is RunFused. Remote shards
// need the remote driver.
func (m *Machine) RunParallel(s Scheme) (*Result, error) {
	return m.runPaced(s, runtime.GOMAXPROCS(0), nil)
}

// RunFused executes the simulation entirely on the calling goroutine: all
// target cores run as one group, a cooperative round-robin under the slack
// invariant (Global <= Local(i) <= MaxLocal(i)) interleaved with the
// manager's rounds. It is grouped execution at K = 1 whatever GOMAXPROCS
// is — exactly what RunParallel does on one host thread, the paper's
// Table 2 configuration — through the same runGroup, coreTurn, rings and
// manager round as K groups, sharded or not. The lone group only schedules
// differently: it never parks and never yields to peers it does not have.
// Conservative schemes are schedule-invariant, so CC/Q/L/S* runs are
// bit-exact against RunSerial and RunParallel at any K (the determinism
// suite enforces this). Remote shards need the remote driver.
func (m *Machine) RunFused(s Scheme) (*Result, error) {
	return m.runPaced(s, 1, nil)
}

// runPaced is every paced driver: at most k groups run the manager round
// over the machine's hosted shards or, given remote options, over remote
// workers connected here and shut down after the join. The in-process
// drivers pass none, so they refuse a machine with remote shards.
func (m *Machine) runPaced(s Scheme, k int, opts *RemoteOptions) (*Result, error) {
	if opts == nil && m.remote != nil {
		return nil, fmt.Errorf("core: a machine with RemoteShards=%d runs with RunRemoteSharded", m.remote.n)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	p := m.beginRun(s, k)
	backend := m.shardBackend
	if opts != nil {
		if err := m.remoteConnect(opts); err != nil {
			return nil, err
		}
		backend = m.remoteBackend
	}

	// Every goroutine of the run (this one included) is contained: a panic
	// anywhere inside the simulation is recorded as a SimError, the run is
	// cancelled (done + wakeAll, so every peer unparks and joins), and the
	// error is returned below — no goroutine leaks, no host-process crash.
	// The remote backend's wire goroutines are contained the same way.
	var wg sync.WaitGroup
	mgr := m.newMgrLoop(p, backend())
	m.spawnGroups(&wg, mgr)
	m.runGroup(&m.groups[0], mgr)
	m.wakeAll()
	wg.Wait()
	if opts != nil {
		m.remoteShutdown()
	}
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

// bumpMgrEpoch publishes core-side activity to the manager role: a group
// pass that moved a member and did not end in a round, an OutQ push, or a
// remote reply batch. The epoch store comes first so a group checking the
// epoch before parking in the role either sees the bump (and stays up) or
// parks with the flag already visible to us — in which case the channel
// send below wakes it. The Dekker pairing mirrors parkGroup/wake.
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

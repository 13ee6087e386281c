package core

import (
	"fmt"
	"runtime"
	"time"

	"slacksim/internal/event"
	"slacksim/internal/faultinject"
)

// RunFused executes the simulation entirely on the calling goroutine: all
// target cores run inline as a cooperative round-robin under the slack
// invariant (Global <= Local(i) <= MaxLocal(i)), interleaved with the
// manager's rounds. It exists for the scarce-host-core
// regime (the paper's Table 2 configuration: the whole parallel engine on
// one host core), where the threaded fabric — per-publication min-tree
// maintenance, rings, the manager's epoch and wake-ups — is pure overhead:
// with a single runner there is nothing to synchronise, so the fused driver
// replaces every atomic, park and cross-goroutine ring on the hot path with
// plain locals and slice appends.
//
//   - Core->manager transfer: Env.Send pushes straight into the manager's
//     GQ (the heap's (Time, Core, Seq) order makes the result independent
//     of push order, so this is exact).
//   - Manager->core transfer: replies append to a plain per-core slice
//     (fusedIn) instead of the InQ ring + notify path.
//   - Global time: a direct min over the local clocks (minLocal) instead
//     of the min-tree.
//   - Parks: none. A core with nothing to do is simply skipped this round;
//     the manager's round always runs next.
//
// Scheme semantics are the parallel driver's by construction: the core phase
// is the very coreTurn its groups run (the same batch horizons, stall
// fast-forward and freeze rules, idle-core clamp), the manager phase its
// round (conservative bound, quantum barrier, adaptive controller, health
// checks). Because the round-robin is a particular legal schedule of the
// parallel engine and conservative schemes are schedule-invariant, CC/Q/L/S*
// runs are bit-exact against both RunSerial and RunParallel (the determinism
// suite enforces this).
//
// Pacing atomics (local, maxLocal, global, liveGQ) are still stored — once
// per turn or round, not per cycle — so forensics snapshots, the sampled
// auditor, and the live introspection views keep working unchanged.
func (m *Machine) RunFused(s Scheme) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if m.cfg.ManagerShards > 1 || m.cfg.RemoteShards > 0 {
		return nil, fmt.Errorf("core: RunFused supports only the unsharded in-process manager (ManagerShards=%d RemoteShards=%d)",
			m.cfg.ManagerShards, m.cfg.RemoteShards)
	}
	m.fused = true
	m.fusedIn = make([][]event.Event, m.cfg.NumCores)
	for i := range m.fusedIn {
		m.fusedIn[i] = make([]event.Event, 0, m.cfg.RingCap)
	}
	start := time.Now()
	p := m.beginRun(s)
	func() {
		defer m.containPanic(faultinject.Manager, "fused-loop")
		m.runFusedLoop(p)
	}()
	return m.finishRun(start)
}

// fusedNoteInDepth ratchets core i's inq high-water gauge after a fused
// pending-reply append. The fused loop never touches the InQ/OutQ rings, so
// the ring observers installed by EnableIntrospection would leave /slack
// reporting zeros; the append sites record the equivalent depth instead.
func (m *Machine) fusedNoteInDepth(core int) {
	if m.introOn && m.hwIn != nil {
		m.hwIn[core].SetMax(int64(len(m.fusedIn[core])))
	}
}

// runFusedLoop is the fused driver's round loop: one core phase (every core
// takes one coreTurn, the turn of the threaded drivers' groups), then one
// manager round — the threaded managers' own (mgrLoop.round), over a backend
// with nothing to drain: Env.Send already put the requests in the GQ. A
// round in which nothing moved on either side only yields: a healthy
// conservative run is never idle (the slide-to-edge rule always moves the
// minimum core), so that branch is cold.
func (m *Machine) runFusedLoop(p pacing) {
	pace := corePacing{conservative: m.scheme.Conservative(), critical: m.cfg.Cache.CriticalLatency()}
	l := m.newMgrLoop(p, mgrBackend{drain: func(int64) bool { return false }, deadlockSound: true})

	for rounds := 1; !m.done.Load(); rounds++ {
		// Under conservative schemes every reply pushed by a later manager
		// round stems from an event stamped >= global, so its timestamp is
		// >= global + critical latency and no batch runs past an
		// undelivered event.
		progress, g := false, m.global.Load()
		for i := range m.members {
			if m.coreTurn(&m.members[i], pace, g, l.p.edge) {
				progress = true
			}
		}
		// The live /slack view reads the min-tree leaves, which nothing
		// here maintains: refresh them now and then, not per publication.
		if m.introOn && rounds&63 == 0 {
			for i := range m.cores {
				m.refreshMinLeaf(i)
			}
		}
		if !l.round() && !progress {
			l.idle(false)
			runtime.Gosched() // stay polite to the host while waiting
		}
	}
}

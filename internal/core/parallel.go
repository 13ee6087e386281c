package core

import (
	"math"
	"runtime"
	"sync"
	"time"

	"slacksim/internal/event"
	"slacksim/internal/faultinject"
	"slacksim/internal/trace"
)

// parkSpinIters bounds the busy-wait phase before a blocked core thread
// parks on its condition variable. Shared-memory spinning is the cheap
// common case the paper's design exploits; parking only matters when the
// host is oversubscribed (e.g. 9 simulation threads on 1 host core).
const parkSpinIters = 128

// optimisticBatch caps the batched inner loop for schemes with no safe
// conservative horizon (the window may be unbounded). The batch also breaks
// as soon as a reply lands in the core's rings, so this only bounds the
// uninterrupted hit-streak run length.
const optimisticBatch = 256

// localPublishMask publishes the core's local clock every 32 batched cycles
// (in addition to every batch end), bounding how stale the manager's view of
// a long-running batch can get. Lazy publication is safe: the published
// value is always <= the true local clock, so the global-time minimum it
// feeds stays conservative.
const localPublishMask = 31

// batchDisabled forces coreLoop to its single-cycle path (test hook for the
// batching determinism cross-check; see TestBatchedSteppingDeterminism).
var batchDisabled bool

// RunParallel executes the simulation with one goroutine per target core
// plus the manager on the calling goroutine, paced by the given slack
// scheme.
func (m *Machine) RunParallel(s Scheme) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	p := m.beginRun(s)

	// Every spawned goroutine (and the manager loop itself) runs under
	// containPanic: a panic anywhere inside the simulation is recorded as
	// a SimError, the run is cancelled (done + wakeAll, so every peer
	// unparks and joins), and the error is returned below — no goroutine
	// leaks, no host-process crash.
	var wg sync.WaitGroup
	m.spawnCores(&wg)
	toGQ := m.gq.Push
	be := mgrBackend{drain: func(int64) bool { return m.drainDirty(toGQ) }, deadlockSound: true}
	if m.shards != nil {
		be = m.startShards(&wg)
	}
	func() {
		defer m.containPanic(faultinject.Manager, "manager")
		m.runManager(p, be)
	}()
	m.wakeAll()
	wg.Wait()
	return m.finishRun(start)
}

// spawnCores starts one contained coreLoop goroutine per target core.
func (m *Machine) spawnCores(wg *sync.WaitGroup) {
	for i := range m.cores {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer m.containPanic(i, "core-loop")
			m.coreLoop(i)
		}(i)
	}
}

// coreLoop is one core thread: deliver InQ events whose time has come,
// simulate up to a safe horizon of cycles in a tight batch, publish the new
// local time; block at the window edge.
//
// Batched stepping: each outer iteration computes a batch end (see
// corePacing.batchEnd) and runs Tick in an inner loop up to it, hoisting the
// done/global/maxLocal atomic loads, the inbox drain, the trace/metric
// sampling, and (mostly) the local-clock publication out of the per-cycle
// path. Under conservative schemes every event is still applied exactly at
// its timestamp, so they stay bit-exact against the serial reference. Under
// optimistic schemes the batch additionally breaks as soon as a reply lands
// in the core's rings, preserving cycle-granularity delivery on arrival.
//
// A core whose Tick made no progress (fully stalled pipeline) does not burn
// simulated cycles at host speed. It fast-forwards to the next
// deterministic work time or, when only a not-yet-arrived reply can unblock
// it, yields the host CPU without advancing its clock (see
// corePacing.skipTarget). This reproduces the paper's regime (simulating a
// cycle was expensive relative to the manager's reply latency, so a stalled
// core observed replies at their timestamps) and prevents unbounded-slack
// runs from inflating the simulated time by host-speed-dependent amounts.
func (m *Machine) coreLoop(i int) {
	c := m.cores[i]
	st := c.Stats()
	// Sized so a full InQ drain never grows the slice mid-run.
	inbox := make([]event.Event, 0, m.cfg.RingCap)
	local := m.local[i].v.Load()
	pace := m.corePacing()
	ticks := 0
	tw := m.coreWriter(i)
	measure := m.met != nil
	aud := m.audit
	var fi *injected
	if m.fiCore != nil {
		fi = newInjected(m.fiCore[i])
	}
	var loopT0 time.Time
	if measure {
		loopT0 = time.Now()
		defer func() { m.coreHostNS[i] = time.Since(loopT0).Nanoseconds() }()
	}
	for !m.done.Load() {
		// Yield periodically so an oversubscribed host (the paper's 1- and
		// 2-host-core configurations) cannot starve the manager.
		if ticks++; ticks&63 == 0 {
			runtime.Gosched()
		}
		if fi != nil && m.applyCoreFaults(i, fi, &local) {
			continue
		}

		// Read the global time before draining the inbox: every reply
		// pushed before this value was published is then guaranteed to be
		// in the drain below, which makes gSnap + criticalLatency - 1 a
		// safe skip horizon (later pushes are stamped >= gSnap + critical
		// latency by the manager's process-then-publish order).
		gSnap := m.global.Load()
		limit := pace.limit(m.maxLocal[i].v.Load(), gSnap, c.Active())
		if aud != nil && ticks%aud.every == 0 {
			m.auditCore(i, local, gSnap)
		}
		// Slack sampling (1 in 64 iterations when tracing/metrics are on):
		// the headroom MaxLocal(i) − Local(i) and the lead over the last
		// published global time — the paper's per-core slack observables.
		if ticks&63 == 0 && (tw != nil || measure) {
			if limit != math.MaxInt64 {
				slack := limit - local
				tw.Count(trace.KSlack, slack)
				if measure {
					m.met.slack.Observe(slack)
				}
			}
			tw.Count(trace.KLead, local-gSnap)
		}
		if local >= limit {
			if !c.Active() {
				// Following the global time, which other cores advance.
				runtime.Gosched()
				continue
			}
			m.waitCycles[i]++
			ws := tw.Begin()
			var pt0 time.Time
			if measure {
				pt0 = time.Now()
			}
			m.parkCore(i, local)
			if measure {
				m.waitHostNS[i] += time.Since(pt0).Nanoseconds()
				m.met.parks.Inc()
			}
			tw.Span(trace.KWait, ws, local)
			continue
		}

		delivered := m.deliverInbox(i, &inbox, local)

		end := pace.batchEnd(local, limit, gSnap, inbox)
		if roi := m.roiTime.Load(); roi >= 0 && !st.ROIMarked {
			c.MarkROI(local)
		}
		progressed := c.Tick(local)
		local++
		for progressed && local < end {
			if !pace.conservative && m.coreHasEvents(i) {
				break // optimistic: deliver the arrival promptly
			}
			if local&localPublishMask == 0 {
				m.publishLocal(i, local)
			}
			if !st.ROIMarked && m.roiTime.Load() >= 0 {
				c.MarkROI(local)
			}
			progressed = c.Tick(local)
			local++
		}
		m.publishLocal(i, local)
		if progressed || delivered {
			continue
		}

		// Fully stalled: fast-forward to the next actionable time, or hold
		// the clock still until an event arrives (see corePacing.skipTarget).
		next, freeze := pace.skipTarget(limit, gSnap, c.NextWork(local), inbox, c.Active(), m.blocked[i].v.Load() != 0)
		if freeze {
			fs := tw.Begin()
			var ft0 time.Time
			if measure {
				ft0 = time.Now()
			}
			m.freezeWait(i)
			if measure {
				m.waitHostNS[i] += time.Since(ft0).Nanoseconds()
				m.met.freezes.Inc()
			}
			tw.Span(trace.KFreeze, fs, local)
			continue
		}
		if next > local {
			c.Skip(next - local)
			local = next
			m.publishLocal(i, local)
		}
	}
}

// corePacing returns the run's per-core pacing rules (scheme.go).
func (m *Machine) corePacing() corePacing {
	return corePacing{conservative: m.scheme.Conservative(), critical: m.cfg.Cache.CriticalLatency()}
}

// parkCore waits until the manager raises the core's max local time: a
// bounded spin (with yields) followed by a condition-variable park.
func (m *Machine) parkCore(i int, local int64) {
	for s := 0; s < parkSpinIters; s++ {
		if m.done.Load() || m.maxLocal[i].v.Load() > local {
			return
		}
		runtime.Gosched()
	}
	// Publish the waiter flag before the locked predicate check (same
	// lost-wakeup-free pattern as freezeWait): slideWindows either sees the
	// flag and signals under the mutex, or raised maxLocal before our check.
	m.parked[i].v.Store(1)
	m.parkMu[i].Lock()
	for !m.done.Load() && m.maxLocal[i].v.Load() <= local {
		m.parkCond[i].Wait()
	}
	m.parkMu[i].Unlock()
	m.parked[i].v.Store(0)
}

// freezeWait blocks core i until an InQ event arrives (or the run ends):
// a bounded spin, then a park on the core's freeze condition, which every
// reply push signals through notifyCore. Barrier- and lock-blocked threads
// wait here for hundreds of simulated cycles, so parking them takes their
// goroutines out of the host scheduler's rotation instead of burning it
// with yields.
func (m *Machine) freezeWait(i int) {
	for s := 0; s < parkSpinIters; s++ {
		if m.done.Load() || m.coreHasEvents(i) {
			return
		}
		runtime.Gosched()
	}
	// Publish the waiter flag before the final predicate check: a concurrent
	// pusher either sees the flag (and signals under the mutex) or pushed
	// before our check (and we see the event). Sequentially consistent
	// atomics on both sides make missing both impossible.
	m.frozen[i].v.Store(1)
	m.parkMu[i].Lock()
	for !m.done.Load() && !m.coreHasEvents(i) {
		m.freezeCond[i].Wait()
	}
	m.parkMu[i].Unlock()
	m.frozen[i].v.Store(0)
}

// notifyCore wakes core i if it is parked waiting for an InQ event. Called
// by every goroutine that pushes a reply into one of the core's rings,
// after the push. The atomic flag keeps the common no-waiter case free of
// the mutex.
func (m *Machine) notifyCore(i int) {
	if m.frozen[i].v.Load() == 0 {
		return
	}
	m.parkMu[i].Lock()
	m.freezeCond[i].Signal()
	m.parkMu[i].Unlock()
}

func (m *Machine) wakeAll() {
	for i := range m.parkCond {
		m.parkMu[i].Lock()
		m.parkCond[i].Broadcast()
		m.freezeCond[i].Broadcast()
		m.parkMu[i].Unlock()
	}
	m.wakeManager()
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
// parkCore/notifyCore.
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

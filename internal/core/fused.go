package core

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"slacksim/internal/cpu"
	"slacksim/internal/event"
	"slacksim/internal/faultinject"
	"slacksim/internal/trace"
)

// RunFused executes the simulation entirely on the calling goroutine: all
// target cores run inline as a cooperative round-robin under the slack
// invariant (Global <= Local(i) <= MaxLocal(i)), interleaved with the
// manager's drain/process/window phase. It exists for the scarce-host-core
// regime (the paper's Table 2 configuration: the whole parallel engine on
// one host core), where the goroutine-per-core fabric — scheduling N+1
// goroutines on one P, per-publication min-tree maintenance, Dekker parks,
// manager pacing — is pure overhead: with a single runner there is nothing
// to synchronise, so the fused driver replaces every atomic, park and
// cross-goroutine ring on the hot path with plain locals and slice appends.
//
//   - Core->manager transfer: Env.Send pushes straight into the manager's
//     GQ (the heap's (Time, Core, Seq) order makes the result independent
//     of push order, so this is exact).
//   - Manager->core transfer: replies append to a plain per-core slice
//     (fusedIn) instead of the InQ ring + notify path.
//   - Global time: a direct min over the loop-owned locals (with the same
//     blocked/resumeFloor handling as minLocal) instead of the min-tree.
//   - Parks/freezes: none. A core with nothing to do is simply skipped
//     this round; the manager phase always runs next.
//
// Scheme semantics are the parallel driver's, phase by phase: the same
// batch horizons (conservative: global + critical latency; optimistic:
// optimisticBatch), the same stall fast-forward rules (slide to the window
// edge under conservative schemes, freeze under optimistic ones), the same
// per-scheme processing (conservative bound, quantum barrier, adaptive
// controller), and the same idle-core clamp. Because the round-robin is a
// particular legal schedule of the parallel engine and conservative
// schemes are schedule-invariant, CC/Q/L/S* runs are bit-exact against
// both RunSerial and RunParallel (the determinism suite enforces this).
//
// Pacing atomics (local, maxLocal, global, liveGQ) are still mirrored —
// once per round, not per cycle — so forensics snapshots, the sampled
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
	// The initial windows are mirrored into the pacing atomics for
	// forensics/introspection; the loop's authoritative edge is p.edge.
	p := m.beginRun(s)
	func() {
		defer m.containPanic(faultinject.Manager, "fused-loop")
		m.runFusedLoop(p)
	}()
	return m.finishRun(start)
}

// fusedMin computes the global-time candidate from the loop-owned local
// clocks: the exact semantics of minLocal (skip kernel-blocked cores, count
// resume floors, fall back to the current global when everything is
// blocked) over plain values instead of the min-tree.
func (m *Machine) fusedMin(locals []int64, g int64) int64 {
	lo := int64(-1)
	for i := range locals {
		if m.blocked[i].v.Load() != 0 {
			continue
		}
		v := locals[i]
		if f := m.resumeFloor[i].v.Load(); f > v {
			v = f
		}
		if lo < 0 || v < lo {
			lo = v
		}
	}
	if lo < 0 {
		return g
	}
	return lo
}

// publishFusedHighWaters mirrors the fused driver's pending-event depths
// into the introspection high-water gauges. The fused loop never touches
// the InQ/OutQ rings (pending replies live in fusedIn, undelivered
// events in the round's inboxes), so the ring observers installed by
// EnableIntrospection would leave /slack reporting zeros; this publishes
// the equivalent per-core depth instead. No-op when introspection is off.
func (m *Machine) publishFusedHighWaters(inboxes [][]event.Event) {
	if m.hwIn == nil {
		return
	}
	for i := range m.hwIn {
		m.hwIn[i].SetMax(int64(len(m.fusedIn[i]) + len(inboxes[i])))
	}
}

// fusedNoteInDepth ratchets core i's inq high-water gauge after a fused
// pending-reply append. The sampled publishFusedHighWaters would miss a
// reply that is delivered between two samples — on a register-bound
// workload a single memory miss is exactly that — so the append sites
// record the depth directly when introspection is on.
func (m *Machine) fusedNoteInDepth(core int) {
	if m.introOn && m.hwIn != nil {
		m.hwIn[core].SetMax(int64(len(m.fusedIn[core])))
	}
}

// fusedDeadlocked is detectDeadlock for the fused driver: the GQ, every
// pending-reply slice and every undelivered inbox must be empty, and the
// kernel must report every live thread queued on a synchronisation object.
func (m *Machine) fusedDeadlocked(inboxes [][]event.Event) bool {
	if m.gq.Len() != 0 {
		return false
	}
	for i := range m.fusedIn {
		if len(m.fusedIn[i]) != 0 || len(inboxes[i]) != 0 {
			return false
		}
	}
	return m.kernel.Deadlocked()
}

// applyFusedCoreFaults fires core i's due injected faults against its
// loop-owned clock. It mirrors applyCoreFaults with one structural change:
// a Stall fault cannot spin (there is no per-core goroutine to stall), so
// it pins the core instead — the core is skipped every round, its frozen
// clock pins the global time, and the stall watchdog fires with the same
// forensics as the parallel driver.
func (m *Machine) applyFusedCoreFaults(i int, inj *injected, local *int64, pinned *bool) bool {
	restart := false
	for idx := range inj.faults {
		f := &inj.faults[idx]
		if inj.fired[idx] || *local < f.At {
			continue
		}
		inj.fired[idx] = true
		switch f.Kind {
		case faultinject.Panic:
			panic(fmt.Sprintf("faultinject: injected panic on core %d at local=%d", i, *local))
		case faultinject.Stall:
			*pinned = true
			return true
		case faultinject.RingFlood:
			m.floodOutQ(i, *local)
		case faultinject.ClockWarp:
			nl := *local - f.Dur
			if nl < 0 {
				nl = 0
			}
			*local = nl
			m.local[i].v.Store(nl)
			restart = true
		}
	}
	return restart
}

// runFusedLoop is the fused driver's round loop. Each round is one core
// phase (every runnable core delivers its pending replies, then ticks a
// batch of cycles up to the scheme's horizon, or fast-forwards a stall —
// the corePacing rules of the goroutine-per-core loop) followed by one
// manager phase (global-time min, the shared visibility step and window
// slide, sampled observability and the shared progress watch).
func (m *Machine) runFusedLoop(p pacing) {
	n := len(m.cores)
	pace := m.corePacing()
	g := int64(0)

	locals := make([]int64, n)
	inboxes := make([][]event.Event, n)
	stats := make([]*cpu.Stats, n)
	ticks := make([]int, n)
	pinned := make([]bool, n)
	for i, c := range m.cores {
		inboxes[i] = make([]event.Event, 0, m.cfg.RingCap)
		stats[i] = c.Stats()
		locals[i] = m.local[i].v.Load()
	}
	var fi []*injected
	if m.fiCore != nil {
		fi = make([]*injected, n)
		for i := range fi {
			fi[i] = newInjected(m.fiCore[i])
		}
	}
	fiMgr := newInjected(m.fiMgr)
	aud := m.audit
	mw := m.mgrTW
	measure := m.met != nil
	watch := newProgressWatch()
	rounds := 0

	// Publish the pending-queue high-waters before the first round: an
	// introspection client that attaches mid-run must see fused ring
	// depths immediately, not only after the first sampled round below.
	m.publishFusedHighWaters(inboxes)

	for !m.done.Load() {
		rounds++
		progress := false

		// --- Core phase: cooperative round-robin over the target cores ---
		for i, c := range m.cores {
			if pinned[i] {
				continue
			}
			local := locals[i]
			if fi != nil && fi[i] != nil && m.applyFusedCoreFaults(i, fi[i], &local, &pinned[i]) {
				if local != locals[i] {
					locals[i] = local
					progress = true // an injected clock warp moved the clock
				}
				continue
			}
			limit := pace.limit(p.edge, g, c.Active())
			if aud != nil {
				if ticks[i]++; ticks[i]%aud.every == 0 {
					m.auditCore(i, local, g)
				}
			}
			if local >= limit {
				continue // at the window edge; the manager phase raises it
			}
			delivered := m.deliverInbox(i, &inboxes[i], local)

			// Under conservative schemes every reply pushed by a later
			// manager phase stems from an event stamped >= g, so its
			// timestamp is >= g + critical latency and the batch can never
			// run past an undelivered event.
			end := pace.batchEnd(local, limit, g, inboxes[i])
			if roi := m.roiTime.Load(); roi >= 0 && !stats[i].ROIMarked {
				c.MarkROI(local)
			}
			progressed := c.Tick(local)
			local++
			for progressed && local < end {
				if !stats[i].ROIMarked && m.roiTime.Load() >= 0 {
					c.MarkROI(local)
				}
				progressed = c.Tick(local)
				local++
			}
			if local != locals[i] {
				locals[i] = local
				m.local[i].v.Store(local) // forensics/introspection mirror
			}
			if progressed || delivered {
				progress = true
				continue
			}

			// Fully stalled: fast-forward, or (freeze) leave the clock where
			// it is until an event arrives in a later round.
			next, freeze := pace.skipTarget(limit, g, c.NextWork(local), inboxes[i], c.Active(), m.blocked[i].v.Load() != 0)
			if !freeze && next > local {
				c.Skip(next - local)
				locals[i] = next
				m.local[i].v.Store(next)
				progress = true
			}
		}

		// --- Manager phase ---
		var t0 time.Time
		if measure {
			t0 = time.Now()
		}
		if ng := m.fusedMin(locals, g); ng > g {
			g = ng
			if measure {
				m.met.globalAdv.Inc()
			}
		}
		if g >= m.cfg.MaxCycles {
			m.aborted = true
			m.done.Store(true)
			return
		}
		if fiMgr != nil {
			applyPanicFaults(fiMgr, g, "manager")
		}
		processed := m.makeVisible(&p, g, nil)
		if g > m.global.Load() {
			m.global.Store(g) // mirror for forensics/audit/introspection
		}
		if m.slideWindows(&p, g) {
			progress = true
		}

		// Sampled observability: trace counts, GQ-depth and slack
		// histograms, live-view mirrors (including the min-tree leaves the
		// /slack root display reads — refreshed here, not per publication).
		if rounds&63 == 0 && (mw != nil || measure) {
			mw.Count(trace.KGlobal, g)
			mw.Count(trace.KQDepth, int64(m.gq.Len()))
			if measure {
				m.met.gqDepth.Observe(int64(m.gq.Len()))
				if p.edge != math.MaxInt64 {
					for i := range locals {
						m.met.slack.Observe(p.edge - locals[i])
					}
				}
			}
		}
		if m.introOn {
			m.liveGQ.Store(int64(m.gq.Len()))
			if rounds&63 == 0 {
				for i := range m.cores {
					m.refreshMinLeaf(i)
				}
				m.publishFusedHighWaters(inboxes)
			}
		}
		if m.trace != nil && (processed || progress) {
			m.trace(g, locals)
		}

		// The health checks of the threaded manager, minus the park: a
		// healthy conservative run is never idle (the slide-to-edge rule
		// always moves the minimum core), so that branch is cold.
		if watch.deadlockCheckDue(processed) && m.fusedDeadlocked(inboxes) {
			m.abortStalled(true, 0)
			return
		}
		if progress || processed || g != watch.lastGlobal {
			watch.productive(g)
			if measure {
				m.mgrBusyNS += time.Since(t0).Nanoseconds()
			}
			continue
		}
		if watch.idle() && m.stalled(&watch) {
			return
		}
		runtime.Gosched() // stay polite to the host while waiting
	}
}

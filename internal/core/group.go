package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"slacksim/internal/cpu"
	"slacksim/internal/event"
	"slacksim/internal/faultinject"
	"slacksim/internal/metrics"
	"slacksim/internal/trace"
)

// This file is the core side of every paced driver: grouped execution. The
// target cores are split into K = min(GOMAXPROCS, NumCores) contiguous
// groups; one host goroutine per group gives its members their turns
// round-robin (coreTurn, also the fused driver's core phase), and waits — as
// a group, never per core — only when no member can move. On the unsharded
// backend the groups run the manager's rounds themselves, between their
// members' turns (the first group on the RunParallel caller), so a run is
// exactly K goroutines. See docs/engine.md, "Grouped execution".

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

// batchDisabled forces coreTurn to its single-cycle path (test hook for the
// batching determinism cross-check; see TestBatchedSteppingDeterminism).
var batchDisabled bool

// groupParkBudget is how much host time a group with no runnable member (or
// an idle manager) keeps yielding and re-polling before it parks: about what
// a park and its wake-up cost, so a short wait (the peer group finishing its
// pass) never pays for one and a long wait (a wire round trip) stops burning
// its host thread almost at once — a yielding goroutine is always runnable,
// and the Go scheduler polls the network only when nothing is. A variable
// only so the lost-wakeup stress test can force every idle pass to park.
var groupParkBudget = 5 * time.Microsecond

// A member's wait state: what, if anything, keeps it from taking a turn.
const (
	memberRunning int32 = iota
	// memberAtEdge: a running thread's core at its window edge, waiting for
	// the manager to slide it.
	memberAtEdge
	// memberFrozen: a stalled core holding its clock still until an InQ
	// event arrives (see corePacing.skipTarget).
	memberFrozen
)

// waitSpans names the trace span a member's wait leaves behind.
var waitSpans = [...]trace.Kind{memberAtEdge: trace.KWait, memberFrozen: trace.KFreeze}

// What a parked group is waiting for (coreGroup.waiting bits); each waker
// signals only the groups waiting for what it just changed.
const (
	waitEdge   int32 = 1 << iota // a member's window edge to rise
	waitGlobal                   // the global time to advance (idle members follow it)
	waitEvent                    // an InQ event for a frozen member
)

// member is one target core's loop-owned run state. Only the goroutine
// driving the core touches it, bar wait, which forensic snapshots read.
type member struct {
	id     int
	core   cpu.Core
	st     *cpu.Stats
	local  int64
	inbox  []event.Event // delivered-from-ring events not yet due
	turns  int           // turns offered, runnable or not (audit cadence)
	sample int           // the turn count from which the next slack sample is due
	fi     *injected     // this core's injected faults (nil: none)
	pinned bool          // an injected Stall: the core never moves again
	tw     *trace.Writer
	span   int64 // start of the open KWait/KFreeze trace span
	wait   atomic.Int32
	// Keeps neighbouring members, which different group goroutines write
	// every turn, off each other's cache lines.
	_ [64]byte
}

// coreGroup is one host goroutine's block of target cores and the one
// condition variable the whole block parks on.
type coreGroup struct {
	mu   sync.Mutex
	cond *sync.Cond
	// waiting is the Dekker flag of the park protocol: non-zero while the
	// group is (about to be) parked, holding the wait* reasons. A waker
	// changes the state first and reads the flag second; the group sets the
	// flag first and checks the state second, under mu — so either the waker
	// sees the flag and signals under mu, or the group sees the new state.
	waiting atomic.Int32
	members []member
	// hostNS is the host time the group's goroutine ran and waitNS the part
	// of it in which no member could move (metrics only; read after the
	// join). Both are every member's: a group waits only when all of them do.
	hostNS, waitNS int64
}

// formGroups splits the cores into K = min(GOMAXPROCS, N) contiguous groups
// of ceil(N/K) and resets every member's run state. Part of beginRun.
func (m *Machine) formGroups() {
	n := len(m.cores)
	k := min(runtime.GOMAXPROCS(0), n)
	per := (n + k - 1) / k
	m.nGroups = 0
	for lo := 0; lo < n; lo += per {
		m.groups[m.nGroups].members = m.members[lo:min(lo+per, n)]
		m.nGroups++
	}
	for i := range m.members {
		mb := &m.members[i]
		m.groupOf[i] = &m.groups[i/per]
		mb.id, mb.core, mb.st = i, m.cores[i], m.cores[i].Stats()
		mb.local = m.local[i].v.Load()
		// Sized so a full InQ drain never grows the slice mid-run.
		mb.inbox = make([]event.Event, 0, m.cfg.RingCap)
		if m.coreTW != nil {
			mb.tw = m.coreTW[i]
		}
		if m.fiCore != nil {
			mb.fi = newInjected(m.fiCore[i])
		}
	}
}

// spawnGroups starts one contained goroutine per group from first on (the
// unsharded driver keeps group 0 for its own goroutine).
func (m *Machine) spawnGroups(wg *sync.WaitGroup, first int, mgr *mgrLoop) {
	for k := first; k < m.nGroups; k++ {
		wg.Add(1)
		go func(g *coreGroup) {
			defer wg.Done()
			m.runGroup(g, mgr)
		}(&m.groups[k])
	}
}

// setWait moves a member between wait states, closing the trace span and
// counting the park or freeze it leaves or enters.
func (m *Machine) setWait(mb *member, to int32) {
	from := mb.wait.Load()
	if from == to {
		return
	}
	if from != memberRunning {
		mb.tw.Span(waitSpans[from], mb.span, mb.local)
	}
	switch {
	case to == memberAtEdge:
		m.waitCycles[mb.id]++
		if m.met != nil {
			m.met.parks.Inc()
		}
	case to == memberFrozen && m.met != nil:
		m.met.freezes.Inc()
	}
	mb.span = mb.tw.Begin()
	mb.wait.Store(to)
}

// coreTurn is one target core's turn: deliver the InQ events whose time has
// come, simulate up to a safe horizon of cycles in a tight batch, publish
// the new local time. g is the global time read before the turn and edge
// the core's max local time. It reports whether the core moved; a core at
// its window edge, frozen with no event, or pinned does not.
//
// g must be read before the inbox drain below: every reply pushed before
// that value was published is then in the drain, which makes
// g + criticalLatency - 1 a safe skip horizon (later pushes are stamped
// >= g + critical latency by the manager's process-then-publish order).
//
// Batched stepping: the turn computes a batch end (corePacing.batchEnd) and
// runs Tick in an inner loop up to it, hoisting the clock loads, the inbox
// drain, the sampling and (mostly) the clock publication out of the
// per-cycle path. Under conservative schemes every event is still applied
// exactly at its timestamp, so they stay bit-exact against the serial
// reference. Under optimistic schemes the batch breaks as soon as a reply
// lands in the core's rings, preserving delivery on arrival.
//
// A core whose Tick made no progress (fully stalled pipeline) does not burn
// simulated cycles at host speed: it fast-forwards to its next deterministic
// work time or, when only a not-yet-arrived reply can unblock it, freezes —
// later turns leave its clock alone until an event arrives (corePacing.
// skipTarget). An unbounded-slack run would otherwise inflate the simulated
// time by host-speed-dependent amounts.
func (m *Machine) coreTurn(mb *member, pace corePacing, g, edge int64) bool {
	if mb.pinned {
		return false
	}
	i, c := mb.id, mb.core
	if mb.fi != nil {
		if before := mb.local; m.applyCoreFaults(mb) {
			return mb.local != before // an injected clock warp moved the clock
		}
	}
	local := mb.local
	mb.turns++
	if aud := m.audit; aud != nil && mb.turns%aud.every == 0 {
		m.auditCore(i, local, g)
	}
	if mb.wait.Load() == memberFrozen && !m.coreHasEvents(i) {
		return false
	}
	limit := pace.limit(edge, g, c.Active())
	if local >= limit {
		// An idle core merely follows the global time, which other cores
		// advance; a running one is blocked on the manager.
		if c.Active() {
			m.setWait(mb, memberAtEdge)
		}
		return false
	}
	if mb.wait.Load() != memberRunning {
		m.setWait(mb, memberRunning)
	}
	// Slack sampling (at most 1 turn in 64 when tracing/metrics are on):
	// the headroom MaxLocal(i) − Local(i) and the lead over the last
	// published global time — the paper's per-core slack observables.
	if mb.turns >= mb.sample && (mb.tw != nil || m.met != nil) {
		mb.sample = mb.turns + 64
		if limit != math.MaxInt64 {
			mb.tw.Count(trace.KSlack, limit-local)
			if m.met != nil {
				m.met.slack.Observe(limit - local)
			}
		}
		mb.tw.Count(trace.KLead, local-g)
	}

	delivered := m.deliverInbox(i, &mb.inbox, local)
	end := pace.batchEnd(local, limit, g, mb.inbox)
	st := mb.st
	progressed := true
	for from := local; progressed && local < end; local++ {
		if local > from {
			if !pace.conservative && m.coreHasEvents(i) {
				break // optimistic: deliver the arrival promptly
			}
			if local&localPublishMask == 0 {
				m.publishLocal(i, local)
			}
		}
		if !st.ROIMarked && m.roiTime.Load() >= 0 {
			c.MarkROI(local)
		}
		progressed = c.Tick(local)
	}
	mb.local = local
	m.publishLocal(i, local)
	if progressed || delivered {
		return true
	}

	// Fully stalled: fast-forward to the next actionable time, or hold the
	// clock still until an event arrives (see corePacing.skipTarget).
	next, freeze := pace.skipTarget(limit, g, c.NextWork(local), mb.inbox, c.Active(), m.blocked[i].v.Load() != 0)
	if freeze {
		m.setWait(mb, memberFrozen)
	} else if next > local {
		c.Skip(next - local)
		mb.local = next
		m.publishLocal(i, next)
	}
	return true
}

// runGroup is a group's goroutine: round-robin turns for its members until
// the run ends. With mgr non-nil the run is unsharded and the groups are the
// simulation manager as well: whichever group finds the role free (mgrMu)
// runs the next round — after every pass over its members under a
// conservative scheme, so the round is run by the group that finished its
// window first and would otherwise only wait; after every turn under an
// optimistic one, so a request is answered before a sibling runs further
// ahead of it.
//
// A panic is contained as a SimError naming whichever of the group's
// members — or the manager — was running.
func (m *Machine) runGroup(g *coreGroup, mgr *mgrLoop) {
	cur := g.members[0].id
	defer func() {
		if r := recover(); r != nil {
			op := "core-loop"
			if cur == faultinject.Manager {
				op = "manager"
			}
			m.recordPanic(cur, op, r)
		}
	}()
	pace := corePacing{conservative: m.scheme.Conservative(), critical: m.cfg.Cache.CriticalLatency(), shared: len(g.members) > 1}
	roundPerTurn := mgr != nil && !pace.conservative
	var idleSince time.Time
	var turnH, yieldH, parkH *metrics.Histogram // nil (and inert) unless metrics are on
	if m.met != nil {
		turnH, yieldH, parkH = m.met.groupTurnNS, m.met.groupYieldNS, m.met.groupParkNS
		defer func(start time.Time) { g.hostNS = time.Since(start).Nanoseconds() }(time.Now())
	}
	// endSpell charges the idle time since idleSince to the group's wait.
	endSpell := func(h *metrics.Histogram) {
		if h != nil {
			d := time.Since(idleSince).Nanoseconds()
			g.waitNS += d
			h.Observe(d)
		}
	}
	// manage runs one manager round unless another group is running one.
	// After a round that changed nothing the group keeps the role while it
	// waits on the activity epoch (parking only if mayPark), exactly as a
	// manager goroutine would: its own members can only be released by a
	// round, and it is the one placed to run it.
	manage := func(mayPark bool) (ran bool) {
		if mgr == nil || !m.mgrMu.TryLock() {
			return false
		}
		cur = faultinject.Manager
		if !mgr.round() {
			mgr.idle(mayPark)
		}
		m.mgrMu.Unlock()
		return true
	}
	idle := false
	for passes := 1; !m.done.Load(); passes++ {
		// Yield now and then so an oversubscribed host (shard workers, a
		// manager goroutine, wire goroutines) cannot be starved by groups
		// that never wait — the optimistic schemes' normal state.
		if passes&7 == 0 {
			runtime.Gosched()
		}
		moved := false
		for k := range g.members {
			mb := &g.members[k]
			cur = mb.id
			var t0 time.Time
			sample := turnH != nil && mb.turns >= mb.sample
			if sample {
				t0 = time.Now()
			}
			if !m.coreTurn(mb, pace, m.global.Load(), m.maxLocal[mb.id].v.Load()) {
				continue
			}
			moved = true
			if sample {
				turnH.Observe(time.Since(t0).Nanoseconds())
			}
			// The per-turn round, unless a core of this very group holds the
			// global time back: everybody is waiting for this group, so one
			// that is ahead (and would wait anyway) takes the round.
			if roundPerTurn {
				if a := m.lt.argmin(); m.nGroups == 1 || a < 0 || m.groupOf[a] != g {
					manage(false)
				}
			}
		}
		switch {
		case moved && idle:
			idle = false
			endSpell(yieldH)
		case !moved && !idle:
			idle, idleSince = true, time.Now()
		}
		// The end-of-pass round (the per-turn ones make it redundant).
		if !(roundPerTurn && moved) && manage(!moved) || moved {
			continue
		}
		// Nothing to run and somebody else is the manager. Yield first,
		// always: the host thread may be wanted by that manager, a shard
		// worker or a wire goroutine. Park once the wait has outlasted what
		// a park costs.
		runtime.Gosched()
		if time.Since(idleSince) >= groupParkBudget {
			endSpell(yieldH)
			idleSince = time.Now()
			m.parkGroup(g, pace)
			endSpell(parkH)
			idleSince = time.Now()
		}
	}
	// Whichever group ran the round that ended the run, its peers — the one
	// RunParallel itself is in, perhaps — may be parked.
	m.wakeAll()
}

// groupRunnable reports whether any member could take a turn now and,
// failing that, what would make one runnable (wait* bits).
func (m *Machine) groupRunnable(g *coreGroup, pace corePacing) (bool, int32) {
	need := int32(0)
	global := m.global.Load()
	for k := range g.members {
		mb := &g.members[k]
		switch {
		case mb.pinned:
		case mb.wait.Load() == memberFrozen:
			if m.coreHasEvents(mb.id) {
				return true, 0
			}
			need |= waitEvent
		default:
			active := mb.core.Active()
			if mb.local < pace.limit(m.maxLocal[mb.id].v.Load(), global, active) {
				return true, 0
			}
			need |= waitEdge
			if !active || !pace.conservative {
				need |= waitGlobal
			}
		}
	}
	return false, need
}

// parkGroup blocks the group's goroutine until a member is runnable or the
// run ends. The members' wait classes cannot change while their own
// goroutine is here, so the reasons computed before the flag is raised stay
// the right ones.
func (m *Machine) parkGroup(g *coreGroup, pace corePacing) {
	_, need := m.groupRunnable(g, pace)
	g.waiting.Store(need)
	g.mu.Lock()
	for !m.done.Load() {
		if ok, _ := m.groupRunnable(g, pace); ok {
			break
		}
		g.cond.Wait()
	}
	g.mu.Unlock()
	g.waiting.Store(0)
}

// wake signals the group if it is parked waiting for reason. The flag check
// keeps the common nobody-parked case free of the mutex.
func (g *coreGroup) wake(reason int32) {
	if g.waiting.Load()&reason == 0 {
		return
	}
	g.mu.Lock()
	g.cond.Signal()
	g.mu.Unlock()
}

// notifyCore wakes core i's group if it is parked waiting for an InQ event.
// Called by every goroutine that pushes a reply into one of the core's
// rings, after the push.
func (m *Machine) notifyCore(i int) { m.groupOf[i].wake(waitEvent) }

// wakeAll unparks every group and the manager: the run is over.
func (m *Machine) wakeAll() {
	for k := range m.groups {
		g := &m.groups[k]
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	}
	m.wakeManager()
}

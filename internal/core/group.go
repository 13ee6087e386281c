package core

import (
	"fmt"
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
// round-robin (coreTurn), and waits — as a group, never per core — only
// when no member can move. The groups run the manager's rounds themselves,
// between their members' turns (the first group on the caller's
// goroutine), so an in-process run is exactly K goroutines and a remote one
// adds only its wire goroutines; at K = 1 in process that is RunFused. See
// docs/engine.md, "Grouped execution".

// optimisticBatch caps the batched inner loop for schemes with no safe
// conservative horizon (the window may be unbounded). The batch also breaks
// as soon as a reply for the core lands in its group's InQ, so this only
// bounds the uninterrupted hit-streak run length.
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
	// memberFrozen: a stalled core holding its clock still until a reply
	// for it arrives (see corePacing.skipTarget).
	memberFrozen
)

// waitSpans names the trace span a member's wait leaves behind.
var waitSpans = [...]trace.Kind{memberAtEdge: trace.KWait, memberFrozen: trace.KFreeze}

// What a parked group is waiting for (coreGroup.waiting bits); each waker
// signals only the groups waiting for what it just changed.
const (
	waitEdge   int32 = 1 << iota // a member's window edge to rise
	waitGlobal                   // the global time to advance (idle members follow it)
	waitEvent                    // a reply for a frozen member
	waitRound                    // the K-th group at the edge to run its rounds
)

// member is one target core's loop-owned run state. Only the goroutine
// driving the core touches it, bar wait, which forensic snapshots read.
type member struct {
	id     int
	core   *cpu.OoO
	st     *cpu.Stats
	local  int64
	inbox  []event.Event // demultiplexed replies not yet delivered
	turns  int           // turns offered, runnable or not (audit cadence)
	parks  int64         // arrivals at the window edge (Result.BlockedParks)
	sample int           // the turn count from which the next slack sample is due
	fi     *injected     // this core's injected faults (nil: none)
	pinned bool          // an injected Stall: the core never moves again
	// arrived: demux put a reply in inbox since deliverInbox last looked.
	// A frozen member wakes on its own arrival, never on a sibling's.
	arrived bool
	tw      *trace.Writer
	span    int64 // start of the open KWait/KFreeze trace span
	wait    atomic.Int32
	// Keeps neighbouring members, which different group goroutines write
	// every turn, off each other's cache lines.
	_ [64]byte
}

// coreGroup is one host goroutine's block of target cores, the one
// condition variable the whole block parks on, and the block's event rings.
type coreGroup struct {
	mu   sync.Mutex
	cond *sync.Cond
	// The group's event fabric (formGroups): its members push their
	// requests into outQ, which the manager role drains; the manager role
	// pushes every reply into inQ, whatever shard or worker produced it,
	// and demux sorts them into the members' inboxes. Each ring has one
	// producer and, in the group's goroutine, one consumer.
	outQ  *event.Ring
	inQ   *event.Ring
	evBuf []event.Event // demux's PopBatch buffer
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
	// wokePeer: the group's last release at an edge woke a parked group,
	// so its next wait there spins wokeSpins times longer (awaitRound).
	wokePeer bool
}

// formGroups splits the cores into K = min(k, N) contiguous groups of
// ceil(N/K), gives each its rings (makeFabric) and resets every member's
// run state. Part of beginRun; RunSerial forms one group.
func (m *Machine) formGroups(k int) {
	n := len(m.cores)
	k = min(k, n)
	per := (n + k - 1) / k
	m.nGroups = 0
	for lo := 0; lo < n; lo += per {
		m.groups[m.nGroups].members = m.members[lo:min(lo+per, n)]
		m.nGroups++
	}
	m.makeFabric()
	for i := range m.members {
		mb := &m.members[i]
		m.groupOf[i] = &m.groups[i/per]
		mb.id, mb.core, mb.st = i, m.cores[i], m.cores[i].Stats()
		mb.local = m.local[i].v.Load()
		// Sized so a core's share of a full ring never grows the slice
		// mid-run.
		mb.inbox = make([]event.Event, 0, m.coreSlots)
		if m.coreTW != nil {
			mb.tw = m.coreTW[i]
		}
		if m.fiCore != nil {
			mb.fi = newInjected(m.fiCore[i])
		}
	}
}

// ringShare is each core's share of its group's rings: a group of n cores
// gets an OutQ and an InQ of ringShare·n slots each (ROADMAP 3(g) asks for
// a derived bound instead).
const ringShare = 512

// makeFabric gives each of the run's groups an OutQ and an InQ of
// m.coreSlots slots per member: 2K rings for K groups on every backend. A
// ring is named after the cores it serves ("outq.c0-3"). The metric
// handles EnableMetrics and EnableIntrospection made are attached here.
func (m *Machine) makeFabric() {
	for k := 0; k < m.nGroups; k++ {
		g := &m.groups[k]
		slots := m.coreSlots * len(g.members)
		cores := fmt.Sprintf("c%d", g.members[0].id)
		if last := g.members[len(g.members)-1].id; last != g.members[0].id {
			cores += fmt.Sprintf("-%d", last)
		}
		ring := func(name string) *event.Ring {
			r := event.NewRing(slots)
			r.SetName(name + "." + cores)
			return r
		}
		g.outQ, g.inQ = ring("outq"), ring("inq")
		g.evBuf = make([]event.Event, 0, m.coreSlots)
		if m.met != nil {
			g.outQ.ObserveDepth(m.met.outDepth)
			g.inQ.ObserveDepth(m.met.inDepth)
		}
		if m.hwIn != nil {
			g.inQ.ObserveHighWater(gaugeMax{m.hwIn})
			g.outQ.ObserveHighWater(gaugeMax{m.hwOut})
		}
	}
}

// demux sorts every reply queued on the group's InQ into its members'
// inboxes, in ring order, and marks each member that got one (arrived).
// Group goroutine only.
func (m *Machine) demux(g *coreGroup) {
	g.evBuf = g.inQ.PopBatch(g.evBuf[:0])
	for j := range g.evBuf {
		mb := &m.members[g.evBuf[j].Core]
		mb.inbox = append(mb.inbox, g.evBuf[j])
		mb.arrived = true
	}
}

// hasEvents reports whether the group's InQ holds an event.
func (g *coreGroup) hasEvents() bool { return g.inQ.Len() > 0 }

// arrivedFor reports whether a reply for mb has arrived since it last
// looked at its inbox, demultiplexing the group's InQ first if it holds
// anything. Group goroutine only.
func (m *Machine) arrivedFor(g *coreGroup, mb *member) bool {
	if !mb.arrived && g.hasEvents() {
		m.demux(g)
	}
	return mb.arrived
}

// publishLocal publishes core i's local clock to the round's global-time
// scan (globalMin), to forensics, audits and /slack. Called from the group
// goroutine at batch boundaries, fast-forwards and injected clock warps;
// the group tells a parked manager role once per pass (runGroup).
func (m *Machine) publishLocal(i int, v int64) { m.local[i].v.Store(v) }

// holdsGlobal reports whether a member of g not blocked in the kernel has
// an effective local time, max(local, resumeFloor), at or below the
// published global time: the group is then what holds the global time
// back. Group goroutine only.
func (m *Machine) holdsGlobal(g *coreGroup) bool {
	global := m.global.Load()
	for k := range g.members {
		mb := &g.members[k]
		if m.blocked[mb.id].Load() == 0 && max(mb.local, m.resumeFloor[mb.id].Load()) <= global {
			return true
		}
	}
	return false
}

// spawnGroups starts one contained goroutine for each group but the first,
// which the driver runs on its own goroutine.
func (m *Machine) spawnGroups(wg *sync.WaitGroup, mgr *mgrLoop) {
	for k := 1; k < m.nGroups; k++ {
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
		mb.parks++
		if m.met != nil {
			m.met.parks.Inc()
		}
	case to == memberFrozen && m.met != nil:
		m.met.freezes.Inc()
	}
	mb.span = mb.tw.Begin()
	mb.wait.Store(to)
}

// coreTurn is one target core's turn: deliver the replies whose time has
// come, simulate up to a safe horizon of cycles in a tight batch, publish
// the new local time. grp is the member's group, g the global time read
// before the turn and edge the window edge. It reports whether the core
// moved; a core at its window edge, frozen with no reply of its own, or
// pinned does not.
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
// for the core lands in its group's InQ, preserving delivery on arrival.
//
// A core whose Tick made no progress (fully stalled pipeline) does not burn
// simulated cycles at host speed: it fast-forwards to its next deterministic
// work time or, when only a not-yet-arrived reply can unblock it, freezes —
// later turns leave its clock alone until an event arrives (corePacing.
// skipTarget). An unbounded-slack run would otherwise inflate the simulated
// time by host-speed-dependent amounts.
func (m *Machine) coreTurn(grp *coreGroup, mb *member, pace corePacing, g, edge int64) bool {
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
	if mb.wait.Load() == memberFrozen && !m.arrivedFor(grp, mb) {
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

	delivered := m.deliverInbox(grp, mb, local)
	end := pace.batchEnd(local, limit, g, mb.inbox)
	st := mb.st
	progressed := true
	for from := local; progressed && local < end; local++ {
		if local > from {
			if !pace.conservative && m.arrivedFor(grp, mb) {
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
	next, freeze := pace.skipTarget(limit, g, c.NextWork(local), mb.inbox, c.Active(), m.blocked[i].Load() != 0)
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
// the run ends. The groups are the simulation manager as well. Under a
// conservative scheme on the hosted backend at K >= 2 they meet at each
// window edge, and the last to arrive runs the rounds (meetAtEdge).
// Otherwise whichever group finds the role free (mgrMu) runs the next
// round: after every pass over its members under a conservative scheme (on
// the remote backend, a pass in which none moved), so the round is run by
// the group that finished its window first and would otherwise only wait;
// after every turn under an optimistic one, so a request is answered, and a
// reply delivered, before a sibling runs further ahead of it. A single group takes those per-turn
// rounds on every backend: the round is how any reply reaches it. A lone
// group (K = 1 in process) is always the manager: it never parks, since no
// other goroutine would wake it, and never yields every 8 passes, since it
// has no peer to yield to. On the remote backend the wire goroutines are
// such peers, so a single group there parks and yields like one of many.
//
// A panic is contained as a SimError naming whichever of the group's
// members — or the manager — was running (a hosted shard names itself:
// processShard).
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
	roundPerTurn := !pace.conservative
	wire := m.remote != nil
	single := m.nGroups == 1
	lone := single && !wire
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
	// waits on the activity epoch (parking only if mayPark): its own members
	// can only be released by a round, and it is the one placed to run it.
	// It parks only if none of them can move: another group's round, run
	// since their turns, may have released them, and a round bumps no epoch.
	manage := func(mayPark bool) (ran bool) {
		if !m.mgrMu.TryLock() {
			return false
		}
		cur = faultinject.Manager
		if !mgr.round() {
			park := mayPark && !lone
			if park {
				runnable, _ := m.groupRunnable(g, pace)
				park = !runnable
			}
			mgr.idle(park)
			if lone {
				runtime.Gosched() // stay polite to the host while nothing moves
			}
		}
		m.mgrMu.Unlock()
		return true
	}
	idle := false
	for passes := 1; !m.done.Load(); passes++ {
		// Yield now and then so an oversubscribed host (the remote
		// backend's wire goroutines, other processes) cannot be starved by
		// groups that never wait — the optimistic schemes' normal state.
		// Groups that meet at the edge wait at every one.
		if !lone && !m.atEdge && passes&7 == 0 {
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
			if !m.coreTurn(g, mb, pace, m.global.Load(), m.edge.v.Load()) {
				continue
			}
			moved = true
			if sample {
				turnH.Observe(time.Since(t0).Nanoseconds())
			}
			// The per-turn round, unless this very group holds the global
			// time back: everybody is waiting for this group, so one that
			// is ahead (and would wait anyway) takes the round.
			if roundPerTurn && (single || !m.holdsGlobal(g)) {
				manage(false)
			}
		}
		if m.atEdge {
			if !moved || m.settled(g, pace) {
				cur = faultinject.Manager // if this group runs the rounds
				m.meetAtEdge(g, mgr)
			}
			continue
		}
		switch {
		case moved && idle:
			idle = false
			endSpell(yieldH)
		case !moved && !idle:
			idle, idleSince = true, time.Now()
		}
		// The end-of-pass round (the per-turn ones make it redundant). A
		// remote round blocks on the wire, so there only a pass in which no
		// member moved takes it: members that can move keep their window.
		if (!moved || !roundPerTurn && !wire) && manage(!moved) {
			continue
		}
		if moved {
			// Clocks moved and this pass ran no round after them: bump the
			// epoch once, so that a group parked in the manager role wakes
			// to read them (docs/engine.md, "Who runs the manager").
			m.bumpMgrEpoch()
			continue
		}
		// Nothing to run and somebody else is the manager. Yield first,
		// always: the host thread may be wanted by the group holding that
		// role or, on the remote backend, by a wire goroutine. Park once the
		// wait has outlasted what a park costs.
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

// settled reports whether no member of g can move before the next round,
// after a pass in which some did, and if so marks each running member at
// its window edge as the empty pass it saves would have (setWait).
func (m *Machine) settled(g *coreGroup, pace corePacing) bool {
	if ok, _ := m.groupRunnable(g, pace); ok {
		return false
	}
	for k := range g.members {
		mb := &g.members[k]
		if !mb.pinned && mb.wait.Load() != memberFrozen && mb.core.Active() {
			m.setWait(mb, memberAtEdge)
		}
	}
	return true
}

// meetAtEdge is the edge rendezvous of a conservative run on the hosted
// backend at K >= 2 (docs/engine.md, "Edge rendezvous"), entered by a group
// whose pass left no member able to move. The group arrives: it adds one to
// the rendezvous word's count. The K-th group to arrive runs manager rounds
// until one changes something, then resets the count and bumps the
// generation in one store and wakes the groups parked for it; every other
// group waits for that store (awaitRound). Nothing a round reads can change
// between a group's arrival and the K-th: its members cannot move, and only
// a round writes blocked, resumeFloor, the edge, the global time or a reply.
func (m *Machine) meetAtEdge(g *coreGroup, mgr *mgrLoop) {
	var t0 time.Time
	if m.met != nil {
		t0 = time.Now()
		defer func() { g.waitNS += time.Since(t0).Nanoseconds() }()
	}
	v := m.meet.v.Add(1)
	gen := v >> 32
	if int(uint32(v)) < m.nGroups {
		m.awaitRound(g, gen, t0)
		return
	}
	for !m.done.Load() && !mgr.round() {
		mgr.idle(true)
	}
	m.meet.v.Store((gen + 1) << 32)
	g.wokePeer = false
	for k := 0; k < m.nGroups; k++ {
		gr := &m.groups[k]
		g.wokePeer = g.wokePeer || gr.waiting.Load()&waitRound != 0
		gr.wake(waitRound)
	}
}

// roundSpin is how much host time a group that arrived at an edge before
// the K-th polls the rendezvous word before it parks. A wait lasts the
// slowest peer's pass plus the rounds, a few µs under CC; a spin shorter
// than that only adds a park and a wake-up to most edges. Groups spin only
// when each can have a host CPU of its own (beginRun sets Machine.edgeSpin):
// otherwise a spinner holds the CPU that the last group to arrive needs. A
// variable only so the lost-wakeup stress test can make every waiter park.
var roundSpin = 20 * time.Microsecond

// wokeSpins is how many times roundSpin a group spins at its next edge
// after it woke a parked peer: that peer's pass starts only after its
// wake-up, which can take 100 µs on a virtual machine, so a roundSpin wait
// would end in a park of its own, whose wake-up would delay the edge after
// that, and so on (docs/performance.md measures such a chain).
const wokeSpins = 25

// awaitRound waits until the generation of the rendezvous word is past gen
// or the run ends: it spins for edgeSpin of host time (reading the clock
// and yielding once every 64 polls), then parks under waitRound. Parking
// follows the groups' protocol: the flag is raised before the last check
// under mu, and meetAtEdge stores the word before it reads the flag. t0 is
// when the group arrived (metrics only: zero otherwise).
func (m *Machine) awaitRound(g *coreGroup, gen int64, t0 time.Time) {
	spin := m.edgeSpin
	if g.wokePeer {
		spin, g.wokePeer = wokeSpins*spin, false
	}
	if spin > 0 {
		// The spin polls the rendezvous word alone: the run's end wakes
		// parked groups (wakeAll), so a spinner learns of it at its park.
		start := t0
		if start.IsZero() {
			start = time.Now()
		}
		for n := 1; m.meet.v.Load()>>32 == gen; n++ {
			if n&63 == 0 {
				if time.Since(start) >= spin {
					break
				}
				// A peer this group woke at the last edge waits in this
				// thread's run queue until another takes it: a spin that
				// never yields would keep it there for the whole spin.
				runtime.Gosched()
			}
		}
	}
	released := func() bool { return m.meet.v.Load()>>32 != gen || m.done.Load() }
	if released() {
		if m.met != nil {
			m.met.groupYieldNS.Observe(time.Since(t0).Nanoseconds())
		}
		return
	}
	var p0 time.Time
	if m.met != nil {
		p0 = time.Now()
		m.met.groupYieldNS.Observe(p0.Sub(t0).Nanoseconds())
	}
	g.waiting.Store(waitRound)
	g.mu.Lock()
	for !released() {
		g.cond.Wait()
	}
	g.mu.Unlock()
	g.waiting.Store(0)
	if m.met != nil {
		m.met.groupParkNS.Observe(time.Since(p0).Nanoseconds())
	}
}

// groupRunnable reports whether any member could take a turn now and,
// failing that, what would make one runnable (wait* bits). It demultiplexes
// once, before looking at any member: a drain made while checking a later
// member would hide an earlier one's arrival from this check, and the round
// that pushed it, finding the InQ empty, would not wake the group.
func (m *Machine) groupRunnable(g *coreGroup, pace corePacing) (bool, int32) {
	m.demux(g)
	need := int32(0)
	global, edge := m.global.Load(), m.edge.v.Load()
	for k := range g.members {
		mb := &g.members[k]
		switch {
		case mb.pinned:
		case mb.wait.Load() == memberFrozen:
			if mb.arrived {
				return true, 0
			}
			need |= waitEvent
		default:
			active := mb.core.Active()
			if mb.local < pace.limit(edge, global, active) {
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

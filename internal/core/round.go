package core

import (
	"math"
	"runtime"
	"time"

	"slacksim/internal/faultinject"
	"slacksim/internal/metrics"
	"slacksim/internal/trace"
)

// This file is the simulation manager's round (§2.1), written once. The
// three threaded drivers — unsharded, sharded, remote — run the same loop
// (mgrLoop.round) over a mgrBackend that supplies only where requests go and
// how their processors are gated; the fused driver keeps its own loop
// skeleton (plain locals instead of rings, a min-tree and parks) but takes
// the visibility step, the window slide and the progress watch from here. See
// docs/engine.md, "The manager round", for why each step sits where it does.

// mgrBackend is what genuinely differs between the threaded managers. Both
// funcs run once per round on the manager goroutine — never per event.
type mgrBackend struct {
	// drain moves the requests the cores pushed since the last round from
	// their OutQs toward whatever processes them, and reports whether any
	// moved. g is the round's global-time candidate.
	drain func(g int64) bool
	// gate, when non-nil, lets the backend's own processors (shard
	// goroutines, remote workers) handle everything routed to them below
	// allowed, and returns only once their replies are in the cores' rings.
	// Only the processors whose gateBook holds a request below allowed are
	// gated and waited for. It reports whether it processed events on the
	// manager goroutine itself. Runs inside the round's notify batch.
	gate func(allowed int64) bool
	// deadlockSound says the manager can see every in-flight event, so an
	// "all queues empty, every live thread blocked" verdict is certain.
	deadlockSound bool
}

// gateBook records, per memory processor (a shard goroutine or a remote
// worker), the gates raised on it and the requests routed to it that no
// gate has covered yet, so that a gate covering none of them is elided
// (docs/engine.md, "Gating only what is pending"). Manager goroutine only.
type gateBook struct {
	procs          []gatedProc
	raised, elided *metrics.Counter // engine.gates.*; nil when metrics are off
}

type gatedProc struct {
	gate    int64   // the last gate raised: the watermark to wait for
	seen    int64   // the highest bound considered, raised or elided
	pending []int64 // timestamps routed and not yet below a raised gate
}

func (m *Machine) newGateBook(n int) *gateBook {
	b := &gateBook{procs: make([]gatedProc, n)}
	if m.met != nil {
		b.raised, b.elided = m.met.gatesRaised, m.met.gatesElided
	}
	return b
}

// note records a request stamped t routed to processor p. Behind an
// unbounded gate every request is answered on arrival, so nothing is kept.
func (b *gateBook) note(p int, t int64) {
	if pr := &b.procs[p]; pr.gate != math.MaxInt64 {
		pr.pending = append(pr.pending, t)
	}
}

// raise reports whether processor p must be gated at bound: bound is new
// and either covers a request p holds or is the unbounded gate of an
// optimistic scheme, which always goes once. Raising records bound as p's
// gate and keeps only the requests at or above it.
func (b *gateBook) raise(p int, bound int64) bool {
	pr := &b.procs[p]
	if bound <= pr.seen {
		return false
	}
	pr.seen = bound
	keep := pr.pending[:0]
	for _, t := range pr.pending {
		if t >= bound {
			keep = append(keep, t)
		}
	}
	if len(keep) == len(pr.pending) && bound != math.MaxInt64 {
		b.elided.Inc()
		return false
	}
	pr.gate, pr.pending = bound, keep
	b.raised.Inc()
	return true
}

// pacing is the scheme-policy state a manager carries between rounds.
type pacing struct {
	s           Scheme
	ad          *adaptState // nil unless the scheme adapts its window
	lastBarrier int64       // last quantum barrier traced
	edge        int64       // every core's current max local time
}

// beginRun installs the scheme for a paced run, opens every core's initial
// window, forms the core groups and returns the manager's pacing state.
func (m *Machine) beginRun(s Scheme) pacing {
	m.scheme = s
	m.schemeLive.Store(&s)
	m.captureHostMem()
	p := pacing{s: s, ad: newAdaptState(s), edge: s.maxLocal(0)}
	for i := range m.maxLocal {
		m.maxLocal[i].v.Store(p.edge)
	}
	m.formGroups()
	return p
}

// finishRun closes a paced run after its goroutines have joined: the
// recorded fault, if any; otherwise the result, once the straggler events
// pushed after done (cores commit a few trailing instructions) have been
// processed so kernel and directory state is final. The drain is guarded —
// a straggler can fault like any in-run event.
func (m *Machine) finishRun(start time.Time) (*Result, error) {
	if err := m.takeFault(); err != nil {
		return nil, err
	}
	func() {
		defer m.containPanic(faultinject.Manager, "final-drain")
		m.drainAll(m.gq.Push)
		m.processBelow(math.MaxInt64)
	}()
	if err := m.takeFault(); err != nil {
		return nil, err
	}
	return m.result(time.Since(start)), nil
}

// mgrLoop is the simulation manager between rounds: the scheme's pacing
// state, the backend, and the liveness bookkeeping.
type mgrLoop struct {
	m            *Machine
	p            pacing
	be           mgrBackend
	watch        progressWatch
	fi           *injected
	tracedLocals []int64
	// epoch is the activity epoch read at the start of the last round: the
	// manager may park only if it has not moved since.
	epoch  int64
	rounds int
}

func (m *Machine) newMgrLoop(p pacing, be mgrBackend) *mgrLoop {
	return &mgrLoop{m: m, p: p, be: be, watch: newProgressWatch(), fi: newInjected(m.fiMgr)}
}

// runManager is the simulation manager as a goroutine of its own (the
// sharded and remote backends, whose gates block): round after round until
// the run ends. The unsharded driver's groups run the same rounds between
// their members' turns instead (runGroup).
func (m *Machine) runManager(p pacing, be mgrBackend) {
	l := m.newMgrLoop(p, be)
	for !m.done.Load() {
		if !l.round() {
			l.idle(true)
		}
	}
}

// roundPhases names the phases of a manager round that one round in 64 is
// timed by, in order: engine.round.<phase>_ns.
var roundPhases = [...]string{"min", "drain", "visible", "notify", "slide"}

// lapTimer times a sampled round's phases into those histograms, one lap
// after each; a nil *lapTimer (metrics off, an unsampled round) is inert.
type lapTimer struct {
	t time.Time
	h []*metrics.Histogram // the phases still to come
}

func (lt *lapTimer) lap() {
	if lt != nil {
		now := time.Now()
		lt.h[0].Observe(now.Sub(lt.t).Nanoseconds())
		lt.t, lt.h = now, lt.h[1:]
	}
}

// round is one manager round: it consolidates the OutQs, advances the
// global time, makes requests globally visible according to the scheme, and
// slides every core's window. It reports whether the round changed anything;
// the run's end (MaxCycles, a certain deadlock) is left in done.
//
// Its cost is proportional to activity, not core count: the global-time
// candidate is the min-tree root (O(1); cores pay O(log N) on publication),
// the drain touches only OutQs with new requests (the dirty set), replies
// are pushed with one coalesced notify per group, and a quiescent machine
// parks the manager on its wake channel (idle).
func (l *mgrLoop) round() bool {
	m, mw := l.m, l.m.mgrTW
	measure := m.met != nil
	var t0 time.Time
	var lt *lapTimer
	if measure {
		t0 = time.Now()
		if l.rounds++; l.rounds&63 == 0 {
			lt = &lapTimer{t: t0, h: m.met.roundNS[:]}
		}
	}
	// The activity epoch is read first: any bump after this point keeps
	// the manager from parking at the end of an idle round, so no
	// activity between the reads below and the idle decision is lost.
	l.epoch = m.mgrEpoch.v.Load()
	// Snapshot the global-time candidate BEFORE draining: every event
	// with a timestamp below this minimum was pushed before its core's
	// clock passed it — the push precedes the core's leaf update in the
	// total order of atomic operations, which precedes this root read —
	// so the drain below is guaranteed to contain it. Draining first
	// would let cores advance between the drain and the minimum,
	// overstating the bound past events still sitting in their OutQs.
	g := m.globalMin()
	if measure {
		// Straggler attribution: charge the round to the core whose
		// leaf holds the min-tree root (latency.go).
		m.noteStraggler()
	}
	lt.lap()
	if l.fi != nil {
		applyPanicFaults(l.fi, g, "manager")
	}
	moved := l.be.drain(g)
	lt.lap()
	if g >= m.cfg.MaxCycles {
		m.aborted = true
		m.done.Store(true)
		return false
	}

	m.beginNotifyBatch()
	processed := m.makeVisible(&l.p, g, l.be.gate)
	lt.lap()
	m.flushNotifyBatch()
	lt.lap()
	if processed {
		mw.Count(trace.KQDepth, int64(m.gq.Len()))
		if measure {
			m.met.gqDepth.Observe(int64(m.gq.Len()))
		}
	}
	if m.introOn {
		// Mirror the manager-owned GQ depth for the live /slack view.
		m.liveGQ.Store(int64(m.gq.Len()))
	}

	// Publish the new global time only after this pass's replies are
	// pushed (including the backend's gate wait): a core reading
	// global = g may then rely on every request stamped below g having
	// been answered, which makes global + critical latency a safe
	// fast-forward horizon (see corePacing).
	wake := int32(0)
	if g > m.global.Load() {
		m.global.Store(g)
		wake = waitGlobal
		mw.Count(trace.KGlobal, g)
		if measure {
			m.met.globalAdv.Inc()
		}
	}
	changed := m.slideWindows(&l.p, g)
	if changed {
		wake |= waitEdge
	}
	// State first, flags second: the waker's half of the groups' park
	// protocol (coreGroup.waiting).
	for k := 0; wake != 0 && k < m.nGroups; k++ {
		m.groups[k].wake(wake)
	}
	lt.lap()

	if m.trace != nil && (changed || processed) {
		if l.tracedLocals == nil {
			l.tracedLocals = make([]int64, len(m.local))
		}
		for i := range m.local {
			l.tracedLocals[i] = m.local[i].v.Load()
		}
		m.trace(g, l.tracedLocals)
	}

	// Certain-deadlock detection: when every live thread is blocked in
	// the kernel, idle cores can keep the global time advancing, so the
	// host-time watchdog never fires — the run would crawl to
	// MaxCycles. After a run of event-free rounds, consult the kernel.
	if l.watch.deadlockCheckDue(moved || processed) && l.be.deadlockSound && m.detectDeadlock() {
		m.abortStalled(true, 0)
		return false
	}
	if moved || processed || changed || g != l.watch.lastGlobal {
		l.watch.productive(g)
		if measure {
			m.mgrBusyNS += time.Since(t0).Nanoseconds()
		}
		return true
	}
	return false
}

// idle follows a round that observed no activity. After a few of those, if
// mayPark and the epoch proves none arrived since the round started, it
// spins briefly, then parks until a core publishes, pushes, or is granted.
// The park is timed (escalating toward mgrParkCeil) so the health checks
// still run when no core will ever bump the epoch again — a stalled or
// deadlocked workload is exactly that case.
func (l *mgrLoop) idle(mayPark bool) {
	m := l.m
	checkStall := l.watch.idle()
	if mayPark && l.watch.shouldPark() && m.mgrIdleWait(l.epoch, l.watch.nextParkTimeout()) {
		if l.be.deadlockSound && m.detectDeadlock() {
			m.abortStalled(true, 0)
			return
		}
		checkStall = true
	}
	if checkStall {
		m.stalled(&l.watch)
	}
}

// makeVisible is the round's visibility step, the one place the scheme's
// visibility rule is applied: everything queued below the scheme's bound
// for global time g is processed, oldest first — by the backend's gated
// processors and by the manager's own queue. It reports whether the manager
// goroutine processed anything.
func (m *Machine) makeVisible(p *pacing, g int64, gate func(int64) bool) (processed bool) {
	mw := m.mgrTW
	before := m.evProcessed
	if bound, barrier := p.s.visibleBound(g); bound > 0 {
		if barrier && bound > p.lastBarrier {
			p.lastBarrier = bound
			mw.Instant(trace.KBarrier, bound)
			if m.met != nil {
				m.met.barriers.Inc()
			}
		}
		ps := mw.Begin()
		if gate != nil {
			processed = gate(bound)
		}
		if m.processBelow(bound) {
			processed = true
		}
		if processed {
			mw.Span(trace.KProcess, ps, m.evProcessed-before)
		}
	}
	if ad := p.ad; ad != nil {
		ad.events += m.evProcessed - before
		if ad.adapt(g) {
			mw.Count(trace.KWindow, ad.window)
			mw.Instant(trace.KPhase, ad.window)
			if m.met != nil {
				m.met.adaptResizes.Inc()
			}
		}
	}
	return processed
}

// slideWindows raises every core's max local time to the scheme's target
// for global time g (the caller wakes the groups parked at the old edge).
// The edge is monotone; it reports whether it moved.
func (m *Machine) slideWindows(p *pacing, g int64) bool {
	adapted := int64(0)
	if p.ad != nil {
		adapted = p.ad.window
	}
	target := p.s.windowTarget(g, adapted)
	if target <= p.edge {
		return false
	}
	p.edge = target
	for i := range m.maxLocal {
		m.maxLocal[i].v.Store(target)
	}
	if m.met != nil {
		m.met.windowSlides.Inc()
	}
	return true
}

// progressWatch is a manager's liveness bookkeeping: when the simulation
// last changed, how long the current productive or idle streak is, and how
// many rounds have passed without a single event.
type progressWatch struct {
	lastChange time.Time
	lastGlobal int64
	prodStreak int
	idleRounds int
	quiet      int
	parkT      time.Duration
}

func newProgressWatch() progressWatch {
	return progressWatch{lastChange: time.Now(), lastGlobal: -1}
}

// deadlockCheckDue counts consecutive rounds in which no event moved or was
// processed and reports every 512th: the certain-deadlock check reads the
// kernel, too costly for every round.
func (w *progressWatch) deadlockCheckDue(eventful bool) bool {
	if eventful {
		w.quiet = 0
		return false
	}
	w.quiet++
	return w.quiet&511 == 0
}

// productive records a round that changed something. The watchdog stamp is
// only consulted after the machine goes idle, so during a hot productive
// streak it is refreshed 1-in-32 (time.Now is ~3% of manager CPU
// otherwise). The idle→productive transition always stamps, so a workload
// that is productive only rarely never accumulates false stall time.
func (w *progressWatch) productive(g int64) {
	if w.idleRounds != 0 || w.prodStreak&31 == 0 {
		w.lastChange = time.Now()
	}
	w.prodStreak++
	w.idleRounds = 0
	w.parkT = 0
	w.lastGlobal = g
}

// idle records a round that changed nothing and reports whether the stall
// watchdog is due (every 1024th idle round in a row).
func (w *progressWatch) idle() (checkStall bool) {
	w.prodStreak = 0
	w.idleRounds++
	return w.idleRounds&1023 == 0
}

// shouldPark reports whether the idle streak is long enough to give the
// host core back.
func (w *progressWatch) shouldPark() bool { return w.idleRounds > 4 }

// mgrParkCeil caps the manager's escalating park timeout: long enough to
// make a fully parked manager's background wake-ups negligible, short
// enough that deadlock detection and the watchdog stay responsive.
const mgrParkCeil = 10 * time.Millisecond

// nextParkTimeout escalates the park timeout from 100µs toward the
// ceiling; a productive round resets it.
func (w *progressWatch) nextParkTimeout() time.Duration {
	switch {
	case w.parkT == 0:
		w.parkT = 100 * time.Microsecond
	case w.parkT < mgrParkCeil:
		if w.parkT *= 2; w.parkT > mgrParkCeil {
			w.parkT = mgrParkCeil
		}
	}
	return w.parkT
}

// stalled is the watchdog: when the simulation has not changed for longer
// than the stall timeout — a deadlocked workload or a simulator bug — it
// ends the run with a StallError rather than let it hang, and reports so.
func (m *Machine) stalled(w *progressWatch) bool {
	wait := time.Since(w.lastChange)
	if wait <= m.stallTimeout() {
		return false
	}
	m.abortStalled(false, wait)
	return true
}

// abortStalled ends the run with a StallError: a certain kernel deadlock,
// or the watchdog's verdict after wait of host time without change. The
// forensic snapshot is taken here, on the goroutine that owns the kernel
// and GQ.
func (m *Machine) abortStalled(deadlock bool, wait time.Duration) {
	m.aborted = true
	m.setFault(&StallError{Deadlock: deadlock, Wait: wait, Report: m.snapshot(true, wait)})
}

func (m *Machine) stallTimeout() time.Duration {
	if m.cfg.StallTimeout > 0 {
		return m.cfg.StallTimeout
	}
	// Generous default: the watchdog exists for genuinely deadlocked
	// workloads, and must not fire on hosts slowed by load or the race
	// detector.
	return 60 * time.Second
}

// mgrIdleWait is the manager-side analogue of parkGroup: the manager yields
// and re-polls for groupParkBudget of host time and then parks on its wake
// channel until core activity bumps the epoch — recovering a host core
// whenever the machine is quiescent, instead of rescanning an unchanged
// machine at host speed. The park is timed: the stall watchdog and certain-deadlock
// detection must keep running even when no core will ever bump the epoch
// again, so the caller gets a timedOut=true wake at most timeout after
// parking and runs the health checks then.
func (m *Machine) mgrIdleWait(epoch int64, timeout time.Duration) (timedOut bool) {
	for t0 := time.Now(); time.Since(t0) < groupParkBudget; runtime.Gosched() {
		if m.done.Load() || m.mgrEpoch.v.Load() != epoch {
			return false
		}
	}
	// Publish the waiter flag before the final epoch check: a concurrent
	// bumper either sees the flag (and sends a wake token) or bumped before
	// our check (and we see the new epoch). Sequentially consistent
	// atomics on both sides make missing both impossible.
	m.mgrParked.Store(1)
	defer m.mgrParked.Store(0)
	if m.done.Load() || m.mgrEpoch.v.Load() != epoch {
		return false
	}
	if m.met != nil {
		m.met.mgrParks.Inc()
	}
	expired := m.armMgrTimer(timeout)
	select {
	case <-m.mgrWake:
		m.disarmMgrTimer()
		return false
	case <-expired:
		return true
	}
}

// armMgrTimer starts the manager's one reusable timer — shared by the idle
// park and the remote watermark wait, which would otherwise allocate one
// per wait — and returns its channel. A disarm that races the expiry can
// leave a stale tick behind (pre-1.23 timer semantics), so a tick may come
// early: the park only times out sooner, the watermark wait re-checks its
// deadline.
func (m *Machine) armMgrTimer(d time.Duration) <-chan time.Time {
	if m.mgrTimer == nil {
		m.mgrTimer = time.NewTimer(d)
	} else {
		m.mgrTimer.Reset(d)
	}
	return m.mgrTimer.C
}

// disarmMgrTimer stops the manager's timer, draining an expiry that has
// already landed.
func (m *Machine) disarmMgrTimer() {
	if !m.mgrTimer.Stop() {
		select {
		case <-m.mgrTimer.C:
		default:
		}
	}
}

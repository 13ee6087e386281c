package core

import (
	"math"
	"time"

	"slacksim/internal/event"
	"slacksim/internal/faultinject"
	"slacksim/internal/trace"
)

// RunSerial executes the whole simulation on the calling goroutine:
// round-robin over the cores each cycle, then the manager. It implements
// cycle-by-cycle semantics with a total order even within a cycle, so it is
// fully deterministic — the testing reference against which the parallel
// schemes' accuracy is measured, and the closest analogue of simulating all
// target cores in a single host thread (the paper's Table 2 baseline).
//
// When every core reports a stalled cycle and the manager has nothing
// eligible, the loop fast-forwards the global clock to the next scheduled
// event — a pure function of simulator state, so determinism is preserved.
// Like the parallel drivers, RunSerial contains panics: a failure inside
// the loop (CPU model bug, ring overflow, audit violation) is returned as
// a *SimError instead of crashing the caller.
func (m *Machine) RunSerial() (*Result, error) {
	start := time.Now()
	m.captureHostMem()
	func() {
		defer m.containPanic(faultinject.Manager, "serial-loop")
		m.runSerialLoop()
	}()
	if err := m.takeFault(); err != nil {
		return nil, err
	}
	return m.result(time.Since(start)), nil
}

func (m *Machine) runSerialLoop() {
	m.serialMode = true
	m.scheme = SchemeCC
	// One group holds every core: the loop runs on its rings and its
	// members' inboxes, through the same drain and demux as the paced
	// drivers.
	m.formGroups(1)
	sc := m.scheme
	m.schemeLive.Store(&sc)
	g := &m.groups[0]
	toGQ := m.gq.Push
	t := int64(0)
	mw := m.mgrTW
	measure := m.met != nil
	for !m.done.Load() {
		if t >= m.cfg.MaxCycles {
			m.aborted = true
			break
		}
		// Observability sampling: the serial engine has no slack by
		// construction, but its global-time profile and queue depths use
		// the same trace/metric names as the parallel drivers so runs are
		// directly comparable.
		if t&255 == 0 && (mw != nil || measure) {
			mw.Count(trace.KGlobal, t)
			mw.Count(trace.KQDepth, int64(m.gq.Len()))
			if measure {
				m.met.gqDepth.Observe(int64(m.gq.Len()))
			}
			if m.introOn {
				m.liveGQ.Store(int64(m.gq.Len()))
			}
		}
		roi := m.roiTime.Load()
		anyProgress := false
		for i, c := range m.cores {
			mb := &g.members[i]
			if m.deliverInbox(g, mb, t) {
				anyProgress = true
			}
			if roi >= 0 && !mb.st.ROIMarked {
				c.MarkROI(t)
			}
			if c.Tick(t) {
				anyProgress = true
			}
			m.local[i].v.Store(t + 1)
		}
		// globalMin is deliberately not consulted here: the serial global
		// time is the loop induction variable, and a scan of the clocks
		// every cycle would tax the reference run for a minimum it never
		// reads.
		if m.drainOutQs(toGQ) {
			anyProgress = true
		}
		t++
		m.global.Store(t)
		if m.processBelow(t) {
			anyProgress = true
		}
		if anyProgress || m.done.Load() {
			continue
		}

		// Everything is stalled: jump to the earliest future work item.
		// Demultiplex the InQ first — replies pushed this very cycle must
		// bound the jump, or it would overshoot their timestamps.
		next := int64(math.MaxInt64)
		m.demux(g)
		for i, c := range m.cores {
			if n := c.NextWork(t); n < next {
				next = n
			}
			if ts, ok := earliestEvent(g.members[i].inbox, true); ok && ts < next {
				next = ts
			}
		}
		if top := m.gq.Peek(); top != nil && top.Time+1 < next {
			// A queued request becomes eligible once global passes it.
			next = top.Time + 1
		}
		if next == math.MaxInt64 || next <= t {
			if next == math.MaxInt64 && m.detectDeadlock() {
				// Certain deadlock (workload bug): no future work anywhere
				// and every live thread is blocked in the kernel. Fail now
				// with forensics instead of crawling to MaxCycles.
				m.aborted = true
				m.setFault(&StallError{Deadlock: true, Report: m.snapshot(true, 0)})
				break
			}
			// Transiently stalled: crawl until work appears or the
			// MaxCycles abort fires.
			continue
		}
		if next > m.cfg.MaxCycles {
			next = m.cfg.MaxCycles
		}
		for i, c := range m.cores {
			c.Skip(next - t)
			m.local[i].v.Store(next)
		}
		t = next
		m.global.Store(t)
		m.processBelow(t)
	}
}

// deliverInbox demultiplexes the group's InQ into its members' inboxes
// and applies every event in mb's whose timestamp has been reached, in
// arrival order among the eligible — the manager's deterministic
// processing order under conservative schemes. It reports whether anything
// was delivered.
func (m *Machine) deliverInbox(g *coreGroup, mb *member, local int64) bool {
	m.demux(g)
	mb.arrived = false
	if len(mb.inbox) == 0 {
		return false
	}
	i := mb.id
	var delays []faultinject.Fault
	if m.fiDelay != nil {
		delays = m.fiDelay[i]
	}
	delivered := false
	kept := mb.inbox[:0]
	for _, ev := range mb.inbox {
		if ev.Time > local {
			kept = append(kept, ev)
			continue
		}
		if delays != nil && delayHeld(delays, ev, local) {
			kept = append(kept, ev)
			continue
		}
		delivered = true
		m.lastEvKind[i].v.Store(int64(ev.Kind))
		m.lastEvTime[i].v.Store(ev.Time)
		if m.audit != nil {
			m.auditDelivery(i, ev, local)
		}
		if ev.SendNS != 0 {
			// A stamped reply (metrics on): attribute the request→reply
			// latency to this core. One zero check on the disabled path.
			m.observeMemLatency(i, &ev, local)
		}
		switch ev.Kind {
		case event.KStart:
			m.cores[i].Start(ev.Addr, m.img.StackTop(i), ev.Aux)
		case event.KStop:
			m.cores[i].Stop()
		default:
			m.cores[i].Deliver(ev, local)
		}
	}
	mb.inbox = kept
	return delivered
}

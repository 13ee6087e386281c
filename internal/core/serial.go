package core

import (
	"math"
	"time"

	"slacksim/internal/cpu"
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
	sc := m.scheme
	m.schemeLive.Store(&sc)
	inboxes := make([][]event.Event, len(m.cores))
	stats := make([]*cpu.Stats, len(m.cores))
	for i, c := range m.cores {
		stats[i] = c.Stats()
	}
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
			if m.deliverInbox(i, &inboxes[i], t) {
				anyProgress = true
			}
			if roi >= 0 && !stats[i].ROIMarked {
				c.MarkROI(t)
			}
			if c.Tick(t) {
				anyProgress = true
			}
			m.local[i].v.Store(t + 1)
		}
		// The dirty-set drain works in serial mode too (Env.Send marks the
		// bitmap), and skips the N-ring scan on the common no-request cycle.
		// The min-tree is deliberately not consulted here: the serial global
		// time is the loop induction variable, and paying the O(log N) leaf
		// path per core per cycle would tax the reference run for a minimum
		// it never reads.
		if m.drainDirty(toGQ) {
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
		// Drain the InQ rings first — replies pushed this very cycle must
		// bound the jump, or it would overshoot their timestamps.
		next := int64(math.MaxInt64)
		for i, c := range m.cores {
			m.drainRing(i, &inboxes[i])
			if n := c.NextWork(t); n < next {
				next = n
			}
			if ts, ok := earliestEvent(inboxes[i], true); ok && ts < next {
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

// deliverInbox drains core i's InQ into its inbox and applies every event
// whose timestamp has been reached, in arrival order among the eligible —
// the manager's deterministic processing order under conservative schemes.
// It reports whether anything was delivered.
func (m *Machine) deliverInbox(i int, inbox *[]event.Event, local int64) bool {
	m.drainRing(i, inbox)
	if len(*inbox) == 0 {
		return false
	}
	var delays []faultinject.Fault
	if m.fiDelay != nil {
		delays = m.fiDelay[i]
	}
	delivered := false
	kept := (*inbox)[:0]
	for _, ev := range *inbox {
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
	*inbox = kept
	return delivered
}

// drainRing moves all queued reply events for core i into its inbox (the
// main manager's ring plus, when sharded, every shard's ring).
func (m *Machine) drainRing(i int, inbox *[]event.Event) {
	for _, r := range m.coreRings[i] {
		*inbox = r.PopBatch(*inbox)
	}
}

// coreHasEvents reports whether any queued reply for core i is pending.
func (m *Machine) coreHasEvents(i int) bool {
	for _, r := range m.coreRings[i] {
		if r.Len() > 0 {
			return true
		}
	}
	return false
}

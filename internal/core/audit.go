package core

import (
	"fmt"

	"slacksim/internal/event"
)

// The runtime invariant auditor (Config.Audit): a sampled checker that
// asserts the paper's pacing invariant Global <= Local(i) <= MaxLocal(i),
// monotone local clocks and window edges, and — under conservative
// schemes — that every event is delivered no later than its timestamp and
// that no request reaches the manager's queue after a visibility pass has
// already gone past it. Violations surface as contained *SimError values
// from the Run* drivers, naming the offending core and event. The auditor
// exists to catch engine bugs (and injected faults) in long runs without a
// serial cross-check; with Audit off the hot paths pay one nil check per
// iteration.

// auditState holds the auditor's history. Each per-core index is touched
// only by the owning core's goroutine (the serial driver owns them all) and
// procBound only by the manager's, so no synchronisation is needed.
type auditState struct {
	// every is the sampling period in core-scheduler iterations.
	every int
	// prevLocal/prevMax track clock and window-edge monotonicity.
	prevLocal []int64
	prevMax   []int64
	// settleG[i] is the global time observed when core i's most recent
	// kernel resume (KSyscallDone grant or KStart) was delivered. A core
	// waking from a blocking system call legitimately runs with
	// local < global until it catches up to the time the world reached
	// while it slept; the Global <= Local check is suppressed below this
	// settle point (and below resumeFloor, before the wake-up jump).
	settleG []int64
	// procBound is the highest bound a bounded (conservative) visibility
	// pass has processed through.
	procBound int64
}

func newAuditState(n, every int) *auditState {
	return &auditState{
		every:     every,
		prevLocal: make([]int64, n),
		prevMax:   make([]int64, n),
		settleG:   make([]int64, n),
	}
}

// auditCore checks core i's pacing state against values its own goroutine
// just read (gSnap is the pre-drain global snapshot of this iteration).
func (m *Machine) auditCore(i int, local, gSnap int64) {
	a := m.audit
	if local < a.prevLocal[i] {
		m.auditFail(i, local, gSnap, nil,
			fmt.Sprintf("local clock moved backwards: %d -> %d", a.prevLocal[i], local))
		return
	}
	a.prevLocal[i] = local
	ml := m.maxLocal[i].v.Load()
	if ml < a.prevMax[i] {
		m.auditFail(i, local, gSnap, nil,
			fmt.Sprintf("window edge moved backwards: %d -> %d", a.prevMax[i], ml))
		return
	}
	a.prevMax[i] = ml
	if local > ml {
		m.auditFail(i, local, gSnap, nil,
			fmt.Sprintf("local %d above window edge MaxLocal %d", local, ml))
		return
	}
	// Lower bound. Skipped while the core is asleep in a blocking system
	// call (excluded from the global minimum), before it has jumped to a
	// pending resume grant (local <= resumeFloor), and while it is still
	// catching up to the post-sleep global time (local < settleG).
	if m.blocked[i].v.Load() != 0 {
		return
	}
	if flo := m.resumeFloor[i].v.Load(); local <= flo || local < a.settleG[i] {
		return
	}
	if gSnap > local {
		m.auditFail(i, local, gSnap, nil,
			fmt.Sprintf("global %d above local %d", gSnap, local))
	}
}

// auditDelivery checks one InQ delivery on core i. Conservative schemes
// must deliver every event exactly at its timestamp — never late; a late
// delivery means the pacing let an event slip behind a core's clock.
// Optimistic schemes deliver late by design (that is the measured
// distortion of §3.2), so only the settle-point bookkeeping applies.
func (m *Machine) auditDelivery(i int, ev event.Event, local int64) {
	a := m.audit
	switch ev.Kind {
	case event.KSyscallDone, event.KStart:
		a.settleG[i] = m.global.Load()
	}
	if m.scheme.Conservative() && ev.Time < local {
		e := ev
		m.auditFail(i, local, m.global.Load(), &e,
			fmt.Sprintf("late delivery under conservative scheme: %v stamped %d delivered at %d",
				ev.Kind, ev.Time, local))
	}
}

// auditVisibility checks the manager's queue at the start of a bounded
// visibility pass to bound (processBelow; optimistic passes are unbounded
// and have no order to audit). Min-before-drain promises that every request
// stamped below a pass's bound is in the queue by that pass, so the oldest
// queued request can never be older than the previous pass's bound; one that
// is entered the GQ after a conservative pass had already gone past it and
// is about to be answered out of timestamp order. A request stamped on the
// last cycle below the previous bound is tolerated; anything older is not.
func (m *Machine) auditVisibility(bound int64) {
	a := m.audit
	if top := m.gq.Peek(); top != nil && top.Time+1 < a.procBound {
		e := *top
		m.auditFail(int(e.Core), e.Time, a.procBound, &e,
			fmt.Sprintf("late request under conservative scheme: %v stamped %d queued after a visibility pass to %d",
				e.Kind, e.Time, a.procBound))
	}
	if bound > a.procBound {
		a.procBound = bound
	}
}

// auditFail records an invariant violation as a contained SimError.
func (m *Machine) auditFail(core int, local, global int64, ev *event.Event, detail string) {
	m.setFault(&SimError{
		Core:       core,
		Op:         "invariant-audit",
		Detail:     detail,
		SimTime:    local,
		GlobalTime: global,
		Scheme:     m.scheme,
		Event:      ev,
	})
}

// Package core implements the paper's contribution: the SlackSim parallel
// simulation engine. Each target core is simulated by one host goroutine;
// one simulation-manager goroutine models the shared L2/directory/
// interconnect and paces the simulation through three shared variables per
// core — local time, max local time, and the global time — with the
// invariant Global <= Local(i) <= MaxLocal(i) (§2.1). The slack schemes
// differ only in how the manager updates max local times and in when queued
// events become globally visible (§3.1).
package core

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"slacksim/internal/event"
)

// SchemeKind enumerates the slack simulation schemes of §3.1.
type SchemeKind int

const (
	// CC is cycle-by-cycle simulation: every thread synchronises after
	// every simulated cycle. The accuracy gold standard (Figure 2a).
	CC SchemeKind = iota
	// Quantum is barrier synchronisation every Window cycles (Figure 2b),
	// the WWT-II approach. Accurate while Window <= critical latency.
	Quantum
	// Lookahead is the conservative event-driven scheme: requests are
	// processed only at the global time, in timestamp order, and threads
	// may advance up to Window cycles past it (the sound form of
	// "lookahead from the oldest event"; see maxLocal).
	Lookahead
	// Bounded is the paper's bounded-slack proposal (Figure 2c): a sliding
	// window of Window cycles with no barriers; events are processed the
	// moment they arrive, so small timing distortions are possible.
	Bounded
	// OldestFirst is bounded slack plus conservative event processing in
	// timestamp order at the global time; with Window < critical latency
	// it eliminates all violations while keeping the sliding window.
	OldestFirst
	// Unbounded is bounded slack with an infinite window (Figure 2d): no
	// synchronisation at all; fastest, largest distortions.
	Unbounded
	// Adaptive is bounded slack whose window adjusts itself between 1 and
	// Window cycles from the observed inter-core event traffic, after the
	// adaptive quantum of Falcon et al. [8] (cited in the paper's §5):
	// communication-heavy phases shrink the window toward cycle-accuracy,
	// compute-only phases stretch it for speed. An extension beyond the
	// paper's evaluated schemes.
	Adaptive
)

// Scheme selects a slack simulation scheme and its cycle window.
type Scheme struct {
	Kind SchemeKind
	// Window is the scheme parameter: the quantum size for Quantum, the
	// lookahead for Lookahead, and the maximum slack for Bounded and
	// OldestFirst. Ignored by CC (0) and Unbounded (infinite).
	Window int64
}

// Standard schemes from the paper's evaluation (§4.2).
var (
	SchemeCC   = Scheme{Kind: CC}
	SchemeQ10  = Scheme{Kind: Quantum, Window: 10}
	SchemeL10  = Scheme{Kind: Lookahead, Window: 10}
	SchemeS9   = Scheme{Kind: Bounded, Window: 9}
	SchemeS9x  = Scheme{Kind: OldestFirst, Window: 9}
	SchemeS100 = Scheme{Kind: Bounded, Window: 100}
	SchemeSU   = Scheme{Kind: Unbounded}
	// SchemeA1000 is the adaptive scheme with a 1000-cycle ceiling.
	SchemeA1000 = Scheme{Kind: Adaptive, Window: 1000}
)

// String renders the paper's scheme names (CC, Q10, L10, S9, S9*, S100, SU).
func (s Scheme) String() string {
	switch s.Kind {
	case CC:
		return "CC"
	case Quantum:
		return fmt.Sprintf("Q%d", s.Window)
	case Lookahead:
		return fmt.Sprintf("L%d", s.Window)
	case Bounded:
		return fmt.Sprintf("S%d", s.Window)
	case OldestFirst:
		return fmt.Sprintf("S%d*", s.Window)
	case Unbounded:
		return "SU"
	case Adaptive:
		return fmt.Sprintf("A%d", s.Window)
	}
	return "?"
}

// MarshalJSON renders a scheme by its paper notation ("S9*", not the
// internal Kind/Window pair), matching the keys of harness result maps.
func (s Scheme) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON parses the paper notation back into a Scheme, so forensic
// reports (StallReport) round-trip through JSON.
func (s *Scheme) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	parsed, err := ParseScheme(name)
	if err != nil {
		return err
	}
	*s = parsed
	return nil
}

// Conservative reports whether the scheme processes events strictly in
// timestamp order at the global time, which (with Window <= the target's
// critical latency) makes the simulated cycle counts deterministic and
// equal to cycle-by-cycle simulation.
func (s Scheme) Conservative() bool {
	switch s.Kind {
	case CC, Quantum, Lookahead, OldestFirst:
		return true
	}
	return false
}

// maxLocal computes a core's new max local time given the scheme and the
// current global time. A core may simulate cycle t while t < maxLocal.
func (s Scheme) maxLocal(global int64) int64 {
	switch s.Kind {
	case CC:
		return global + 1
	case Quantum:
		// Barrier at the next multiple of the quantum.
		return (global/s.Window + 1) * s.Window
	case Lookahead:
		// The textbook anchor is the oldest unprocessed event plus the
		// lookahead, but an anchor beyond the global time is unsound in a
		// running engine: a request still in flight toward the manager
		// (not yet visible as "pending") would not bound it, and its
		// issuer could outrun its own reply. The global time is the
		// tightest sound anchor — the oldest event that can still exist
		// is never older than it.
		return global + s.Window
	case Bounded, OldestFirst:
		// Sliding window [global, global+Window] inclusive.
		return global + s.Window + 1
	case Unbounded:
		return math.MaxInt64
	case Adaptive:
		// The manager substitutes its current adapted window; this is the
		// ceiling.
		return global + s.Window + 1
	}
	return global + 1
}

// The two functions below are the whole of the paper's scheme table
// (PAPER.md) as every driver sees it: how far event visibility and the
// window edge follow the global time. Each driver's manager calls them once
// per round; nothing else in the package branches on the scheme kind.

// visibleBound returns the timestamp bound below which queued requests
// become globally visible once the global time is g. Optimistic schemes
// answer every request on arrival (no bound); conservative schemes answer
// only what the global time has passed, in timestamp order; Quantum answers
// only at the barrier — the last quantum boundary at or below g — and says
// so through barrier.
func (s Scheme) visibleBound(g int64) (bound int64, barrier bool) {
	switch {
	case s.Kind == Quantum:
		return quantumBarrier(g, s.Window), true
	case s.Conservative():
		return g, false
	}
	return math.MaxInt64, false
}

// quantumBarrier returns the last quantum boundary at or below the global
// time g — the visibility point for the Quantum scheme. Rounding down (never
// testing g%window == 0) is the load-bearing part: batched stepping can move
// the global time across a boundary without landing on it, and an equality
// test would skip that barrier's processing entirely (a liveness bug when a
// request below the boundary is the only thing that can unblock a core).
func quantumBarrier(g, window int64) int64 {
	return g - g%window
}

// windowTarget returns every core's max local time once the global time is
// g. adapted is the Adaptive controller's current window (ignored by the
// other kinds), clamped to the scheme's ceiling. The manager only ever
// raises the edge, so Unbounded — at MaxInt64 from the start — never moves.
func (s Scheme) windowTarget(g, adapted int64) int64 {
	if s.Kind == Adaptive && adapted < s.Window {
		s.Window = adapted
	}
	if target := s.maxLocal(g); target >= 0 {
		return target
	}
	return math.MaxInt64 // overflow guard
}

// adaptState is the Adaptive scheme's controller: it measures processed
// events per simulated cycle over epochs of global-time progress and
// halves or doubles the window accordingly (within [1, ceiling]).
type adaptState struct {
	window     int64
	epochStart int64
	events     int64
}

// newAdaptState returns the controller for an Adaptive scheme, nil for
// every other kind.
func newAdaptState(s Scheme) *adaptState {
	if s.Kind != Adaptive {
		return nil
	}
	return &adaptState{window: s.Window}
}

// Adaptation thresholds: above high, synchronise tightly; below low, relax.
const (
	adaptEpoch    = 2048  // simulated cycles per adaptation decision
	adaptHighRate = 0.02  // events per cycle
	adaptLowRate  = 0.005 //
)

// adapt closes an adaptation epoch when one has elapsed at global time g
// and reports whether the window changed.
func (a *adaptState) adapt(g int64) (resized bool) {
	if g-a.epochStart < adaptEpoch {
		return false
	}
	before := a.window
	rate := float64(a.events) / float64(g-a.epochStart)
	switch {
	case rate > adaptHighRate && a.window > 1:
		a.window /= 2
	case rate < adaptLowRate:
		a.window *= 2
	}
	a.epochStart = g
	a.events = 0
	return a.window != before
}

// corePacing is the per-core half of the policy: how far one core may run
// before it must look at the world again: coreTurn paces every driver's
// cores with it, once per batch.
type corePacing struct {
	// conservative selects the safe-horizon rules (every event applied
	// exactly at its timestamp) over the optimistic ones.
	conservative bool
	// critical is the target's critical latency: under a conservative
	// scheme every reply pushed after a core read global = g is stamped
	// >= g + critical (the manager's process-then-publish order).
	critical int64
	// shared says the core takes turns with others on one host goroutine.
	// An optimistic batch is then capped at the critical latency rather than
	// optimisticBatch: a sibling left a whole batch behind would see its
	// requests answered that much out of timestamp order.
	shared bool
}

// limit returns the cycle the core must stop before: its window edge, and
// for a core with no workload thread additionally g + critical, whatever
// the scheme — letting it free-run under large or unbounded slack would
// poison shared-resource occupancy clocks with far-future timestamps. Under
// an optimistic scheme a shared core stops at the lower half of what is left
// of its window (never less than the critical latency): groups drift apart
// at random with nothing but the edge to stop them, the error follows the
// lead of a request's timestamp over the global time when it is answered,
// and a group that far ahead is not the one the run is waiting for
// (docs/engine.md, "Grouped execution", has the measurements).
func (p corePacing) limit(edge, g int64, active bool) int64 {
	if idleMax := g + p.critical; !active && idleMax < edge {
		return idleMax
	}
	if p.shared && !p.conservative && edge != math.MaxInt64 {
		if half := g + max((edge-g+1)/2, p.critical); half < edge {
			return half
		}
	}
	return edge
}

// batchEnd returns the exclusive end of the uninterrupted batch of cycles a
// core at local may tick: min(limit, safe event horizon, earliest kept
// inbox timestamp), and at least one cycle. The safe horizon is g + critical
// under conservative schemes; optimistic schemes have none, so the batch is
// capped at optimisticBatch cycles (the critical latency when shared). Kept
// inbox events all have timestamps > local, so none becomes deliverable in
// the middle of a batch.
func (p corePacing) batchEnd(local, limit, g int64, inbox []event.Event) int64 {
	end := limit
	if p.conservative {
		if hz := g + p.critical; hz < end {
			end = hz
		}
	} else {
		hz := local + optimisticBatch
		if p.shared {
			hz = local + p.critical
		}
		if hz < end {
			end = hz
		}
	}
	if batchDisabled || end <= local+1 {
		return local + 1
	}
	if t, ok := earliestEvent(inbox, true); ok && t < end {
		end = t
	}
	return end
}

// skipTarget returns where a fully stalled core at local fast-forwards to:
// its next deterministic work time — a scheduled completion (nextWork) or a
// queued event's timestamp — capped at limit and, under conservative
// schemes, at g + critical - 1 so no event pushed after the core's last
// drain can land inside the skipped range. With no work in sight an idle
// core follows the window edge, and so does a running core under a
// conservative scheme: requests are answered only once the global time
// passes them, and the global time includes every core not asleep in the
// kernel, so it slides (skips, never ticks) to the edge and the manager
// then answers it. Otherwise — an optimistic scheme answers on arrival, and
// a kernel-blocked thread is excluded from the global time under every
// scheme — the reply needs nothing from this core, and freeze says to hold
// the clock still until an event arrives: ticking once per wait poll would
// advance it at host-schedule speed, exactly the nondeterminism that must
// not leak into the simulation. Every input is a simulated-time quantity, so
// the outcome is deterministic.
func (p corePacing) skipTarget(limit, g, nextWork int64, inbox []event.Event, active, blocked bool) (next int64, freeze bool) {
	next = nextWork
	if t, ok := earliestEvent(inbox, p.conservative); ok && t < next {
		next = t
	}
	if next == math.MaxInt64 {
		if active && (blocked || !p.conservative) {
			return 0, true
		}
		next = limit
	}
	if next > limit {
		next = limit
	}
	if hz := g + p.critical - 1; p.conservative && next > hz {
		next = hz
	}
	return next, false
}

// earliestEvent returns the smallest timestamp among queued events that
// should bound a stalled core's fast-forward jump. Under conservative
// schemes every event participates, so invalidations and downgrades are
// applied exactly at their timestamps — the serial reference and the
// parallel engine then agree on every L1 state transition. Under
// optimistic schemes invalidations are excluded: they unblock nothing, and
// jumping a frozen core's clock to a far-future invalidation from a core
// running ahead would inflate its simulated time by exactly the skew the
// scheme allows; applying them late is part of the measured distortion.
func earliestEvent(inbox []event.Event, includeInvs bool) (int64, bool) {
	best, ok := int64(0), false
	for i := range inbox {
		if !includeInvs {
			switch inbox[i].Kind {
			case event.KInv, event.KDowngrade:
				continue
			}
		}
		if !ok || inbox[i].Time < best {
			best, ok = inbox[i].Time, true
		}
	}
	return best, ok
}

// ParseScheme parses the paper's scheme notation: "CC", "Q10", "L10",
// "S9", "S9*", "S100", "SU" (case-insensitive).
func ParseScheme(s string) (Scheme, error) {
	up := strings.ToUpper(strings.TrimSpace(s))
	switch up {
	case "CC":
		return SchemeCC, nil
	case "SU":
		return SchemeSU, nil
	}
	if len(up) < 2 {
		return Scheme{}, fmt.Errorf("core: bad scheme %q", s)
	}
	kind, rest := up[0], up[1:]
	oldestFirst := strings.HasSuffix(rest, "*")
	rest = strings.TrimSuffix(rest, "*")
	n, err := strconv.ParseInt(rest, 10, 64)
	if err != nil {
		return Scheme{}, fmt.Errorf("core: bad scheme %q", s)
	}
	var out Scheme
	switch {
	case kind == 'Q' && !oldestFirst:
		out = Scheme{Kind: Quantum, Window: n}
	case kind == 'L' && !oldestFirst:
		out = Scheme{Kind: Lookahead, Window: n}
	case kind == 'S' && oldestFirst:
		out = Scheme{Kind: OldestFirst, Window: n}
	case kind == 'S':
		out = Scheme{Kind: Bounded, Window: n}
	case kind == 'A' && !oldestFirst:
		out = Scheme{Kind: Adaptive, Window: n}
	default:
		return Scheme{}, fmt.Errorf("core: bad scheme %q (want CC, Q<n>, L<n>, S<n>, S<n>*, SU)", s)
	}
	return out, out.Validate()
}

// Validate checks the scheme parameters.
func (s Scheme) Validate() error {
	switch s.Kind {
	case CC, Unbounded:
		return nil
	case Quantum, Lookahead:
		if s.Window < 1 {
			return fmt.Errorf("core: scheme %v needs Window >= 1", s.Kind)
		}
	case Bounded, OldestFirst:
		if s.Window < 0 {
			return fmt.Errorf("core: scheme %v needs Window >= 0", s.Kind)
		}
	case Adaptive:
		if s.Window < 1 {
			return fmt.Errorf("core: adaptive scheme needs Window >= 1")
		}
	default:
		return fmt.Errorf("core: unknown scheme kind %d", s.Kind)
	}
	return nil
}

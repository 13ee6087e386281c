package event

import (
	"fmt"
	"sync/atomic"
)

// Ring is a bounded lock-free single-producer single-consumer queue of
// events. It implements the paper's per-core OutQ (core thread produces,
// manager consumes) and InQ (manager produces, core thread consumes) on top
// of the host CMP's coherent shared memory — the communication substrate
// SlackSim exploits in place of MPI message passing.
//
// Exactly one goroutine may call Push and exactly one may call Peek/Pop.
type Ring struct {
	slots []Event
	mask  int64
	head  atomic.Int64 // next slot to read  (consumer-owned)
	tail  atomic.Int64 // next slot to write (producer-owned)

	// depth, when non-nil, observes the queue depth after every Push —
	// the observability subsystem's queue-occupancy metric. Set it
	// before the simulation starts; the observer must be safe for calls
	// from the producer goroutine.
	depth DepthObserver

	// name identifies the ring in overflow diagnostics ("outq.c3").
	name string
	// highWater and pushes are producer-owned occupancy accounting,
	// reported by OverflowError when MustPush fails.
	highWater int64
	pushes    int64

	// hw, when non-nil, observes each new high-water mark. Like depth it
	// is a pre-start installation: highWater itself stays a plain
	// producer-owned field (making it atomic would put a locked op on
	// every push), and the observer only fires on the rare rising edge.
	hw DepthObserver
}

// DepthObserver receives post-Push queue depths (metrics.Histogram
// satisfies it without this package importing metrics).
type DepthObserver interface {
	Observe(depth int64)
}

// ObserveDepth installs obs as the ring's depth observer (nil to clear).
// Must not be called concurrently with Push.
func (r *Ring) ObserveDepth(obs DepthObserver) { r.depth = obs }

// ObserveHighWater installs obs to receive each new high-water occupancy
// mark (nil to clear). Must not be called concurrently with Push. A
// metrics.Gauge-backed observer gives the introspection server a live,
// race-free view of the producer-owned highWater field.
func (r *Ring) ObserveHighWater(obs DepthObserver) { r.hw = obs }

// HighWater returns the maximum occupancy ever observed after a push.
// Producer-owned accounting: only meaningful from the producer goroutine
// or after the run has quiesced.
func (r *Ring) HighWater() int64 { return r.highWater }

// NewRing creates a ring with capacity rounded up to a power of two.
func NewRing(capacity int) *Ring {
	if capacity < 2 {
		capacity = 2
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Ring{slots: make([]Event, n), mask: int64(n - 1)}
}

// SetName labels the ring for overflow diagnostics. Must be set before
// the simulation starts.
func (r *Ring) SetName(name string) { r.name = name }

// Name returns the diagnostic label set with SetName.
func (r *Ring) Name() string { return r.name }

// Cap returns the ring capacity.
func (r *Ring) Cap() int { return len(r.slots) }

// Len returns the current number of queued events (approximate if called by
// neither endpoint).
func (r *Ring) Len() int { return int(r.tail.Load() - r.head.Load()) }

// Push enqueues ev. It returns false when the ring is full.
func (r *Ring) Push(ev Event) bool {
	t := r.tail.Load()
	h := r.head.Load()
	if t-h >= int64(len(r.slots)) {
		return false
	}
	r.slots[t&r.mask] = ev
	r.tail.Store(t + 1) // release: slot write is visible before the new tail
	r.pushes++
	if d := t + 1 - h; d > r.highWater {
		r.highWater = d
		if r.hw != nil {
			r.hw.Observe(d)
		}
	}
	if r.depth != nil {
		r.depth.Observe(t + 1 - r.head.Load())
	}
	return true
}

// OverflowError is the panic payload of a MustPush on a full ring. The
// engine's containment layer recovers it into a *core.SimError so the host
// process survives with the ring's identity and occupancy history intact.
type OverflowError struct {
	// Ring is the diagnostic name set with SetName ("outq.c3").
	Ring string `json:"ring"`
	// Cap is the ring capacity and HighWater the maximum occupancy ever
	// observed after a push (== Cap at overflow, by construction, but kept
	// separately in case the overflow path is raised by hand).
	Cap       int   `json:"cap"`
	HighWater int64 `json:"high_water"`
	// Pushes is the total number of successful pushes before the overflow.
	Pushes int64 `json:"pushes"`
	// Pending is the event that could not be enqueued.
	Pending Event `json:"pending"`
	// Oldest holds the head of the queue at overflow (up to 8 entries),
	// the events the consumer had not yet drained.
	Oldest []Event `json:"oldest,omitempty"`
}

func (e *OverflowError) Error() string {
	return fmt.Sprintf("event: ring %q overflow (cap %d, %d pushes, high-water %d): dropping %v event t=%d for core %d",
		e.Ring, e.Cap, e.Pushes, e.HighWater, e.Pending.Kind, e.Pending.Time, e.Pending.Core)
}

// MustPush enqueues ev and panics with an *OverflowError if the ring is
// full. Ring capacities are sized above the architectural bound on
// outstanding requests (MSHRs + fetch + one syscall), so overflow indicates
// a simulator bug, not load; the engine recovers the panic into a contained
// SimError instead of crashing the host.
func (r *Ring) MustPush(ev Event) {
	if !r.Push(ev) {
		panic(r.overflow(ev))
	}
}

// overflow builds the diagnostic payload for a failed push. Reading the
// queued slots from the producer is safe: only the producer writes slots,
// and the consumer at worst advances head past entries we copy (a stale
// but consistent snapshot).
func (r *Ring) overflow(ev Event) *OverflowError {
	name := r.name
	if name == "" {
		name = "ring"
	}
	oe := &OverflowError{
		Ring:      name,
		Cap:       len(r.slots),
		HighWater: r.highWater,
		Pushes:    r.pushes,
		Pending:   ev,
	}
	h, t := r.head.Load(), r.tail.Load()
	for ; h < t && len(oe.Oldest) < 8; h++ {
		oe.Oldest = append(oe.Oldest, r.slots[h&r.mask])
	}
	return oe
}

// Peek returns a copy of the oldest event without consuming it.
func (r *Ring) Peek() (Event, bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		return Event{}, false
	}
	return r.slots[h&r.mask], true
}

// Pop consumes and returns the oldest event.
func (r *Ring) Pop() (Event, bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		return Event{}, false
	}
	ev := r.slots[h&r.mask]
	r.head.Store(h + 1)
	return ev, true
}

// PopBatch consumes every event queued at the time of the call, appending
// them in order to dst, and returns the extended slice. It publishes the new
// head once for the whole batch instead of once per event, so a consumer
// draining N events issues 2 atomic operations instead of 2N — the manager
// drains the groups' OutQs through this with a reusable buffer.
func (r *Ring) PopBatch(dst []Event) []Event {
	h := r.head.Load()
	t := r.tail.Load() // acquire: slots written before this tail are visible
	if h == t {
		return dst
	}
	for ; h < t; h++ {
		dst = append(dst, r.slots[h&r.mask])
	}
	r.head.Store(h)
	return dst
}

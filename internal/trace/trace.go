// Package trace is the engine's low-overhead execution tracer. Each
// simulation goroutine (core thread, manager, shard worker) owns one
// fixed-size ring buffer of fixed-size records and appends to it without
// taking any lock — the single-producer discipline mirrors the engine's
// OutQ/InQ rings, so tracing perturbs the parallel timing it is trying to
// observe as little as possible. When a ring fills it wraps, keeping the
// most recent records and counting the overwritten ones.
//
// The collected records can be exported as Chrome trace-event JSON
// (chrome://tracing, Perfetto's legacy loader) or rendered as an ASCII
// slack timeline. Export is meant to happen after the traced run has
// finished; a Writer must not be appended to concurrently with export.
package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Kind tags a trace record. Counter kinds become Chrome counter tracks,
// span kinds become duration events, instant kinds become instant events.
type Kind uint8

const (
	// KNone is the zero Kind; never recorded.
	KNone Kind = iota
	// KSlack samples a core's remaining window headroom
	// MaxLocal(i) − Local(i), in simulated cycles (counter).
	KSlack
	// KLead samples how far a core's clock runs ahead of the last
	// observed global time, Local(i) − Global, in simulated cycles
	// (counter). Meaningful under every scheme, including Unbounded,
	// where KSlack would be infinite.
	KLead
	// KGlobal samples the global simulated time (counter, manager).
	KGlobal
	// KWindow samples the adaptive scheme's current window (counter).
	KWindow
	// KQDepth samples the manager's global event-queue depth (counter).
	KQDepth
	// KWait is the span a core spends blocked at its window edge waiting
	// for the manager to slide MaxLocal (arg = headroom shortfall).
	KWait
	// KFreeze is the span a stalled core spends with a frozen clock
	// waiting for a reply event under an optimistic scheme.
	KFreeze
	// KProcess is the span of one manager (or shard worker) processing
	// pass (arg = events processed).
	KProcess
	// KBarrier marks a quantum-barrier visibility point (instant,
	// arg = global time).
	KBarrier
	// KPhase marks a scheme phase transition, e.g. the adaptive
	// controller resizing its window (instant, arg = new window).
	KPhase
	// KWireSend marks a frame batch leaving for a remote worker (instant,
	// arg = WireFlowID). The merged export pairs it with the matching
	// KWireRecv on the worker's track as a Chrome flow event.
	KWireSend
	// KWireRecv marks a frame batch arriving at a remote worker (instant,
	// arg = WireFlowID, matching the parent-side KWireSend).
	KWireRecv
	// KIncident marks a supervision lifecycle transition (instant,
	// arg = worker id). Merged exports render these prominently.
	KIncident
	kindCount
)

var kindNames = [kindCount]string{
	KNone:     "none",
	KSlack:    "slack",
	KLead:     "lead",
	KGlobal:   "global",
	KWindow:   "window",
	KQDepth:   "gq_depth",
	KWait:     "window_wait",
	KFreeze:   "reply_freeze",
	KProcess:  "process",
	KBarrier:  "barrier",
	KPhase:    "phase",
	KWireSend: "wire_send",
	KWireRecv: "wire_recv",
	KIncident: "incident",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// counter reports whether the kind renders as a Chrome counter track.
func (k Kind) counter() bool {
	switch k {
	case KSlack, KLead, KGlobal, KWindow, KQDepth:
		return true
	}
	return false
}

// span reports whether the kind renders as a Chrome duration event.
func (k Kind) span() bool {
	switch k {
	case KWait, KFreeze, KProcess:
		return true
	}
	return false
}

// Rec is one fixed-size trace record. TS and Dur are host nanoseconds on
// the collector's clock (Dur is zero for counters and instants); Arg is
// the kind-specific payload — a counter value, a span detail, or an
// instant's argument.
type Rec struct {
	TS   int64
	Dur  int64
	Arg  int64
	Kind Kind
}

// DefaultCapacity is the per-writer ring size (records). At the engine's
// default sampling rates this holds the tail few hundred milliseconds of a
// run; older records are overwritten and counted, never reallocated.
const DefaultCapacity = 1 << 15

// Collector owns the trace clock and the set of per-goroutine writers.
type Collector struct {
	start time.Time
	// clock overrides the host clock (tests); returns ns since start.
	clock func() int64
	cap   int

	mu      sync.Mutex
	writers []*Writer
}

// New returns a collector with DefaultCapacity rings.
func New() *Collector { return NewWithCapacity(DefaultCapacity) }

// NewWithCapacity returns a collector whose writers hold the given number
// of records each (rounded up to a power of two, minimum 2).
func NewWithCapacity(capacity int) *Collector {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &Collector{start: time.Now(), cap: n}
}

// SetClock replaces the host clock with fn (ns since an arbitrary epoch).
// Tests use it to make exports deterministic; call before any recording.
func (c *Collector) SetClock(fn func() int64) { c.clock = fn }

// Now returns the current trace timestamp (ns since collector creation).
func (c *Collector) Now() int64 {
	if c == nil {
		return 0
	}
	if c.clock != nil {
		return c.clock()
	}
	return time.Since(c.start).Nanoseconds()
}

// Writer registers a new single-producer ring. name labels the goroutine
// in exports ("core 3", "manager", "shard 1"); tid orders its track.
// Writer is safe to call concurrently with other Writer calls, but each
// returned *Writer must only ever be appended to by one goroutine.
func (c *Collector) Writer(name string, tid int32) *Writer {
	if c == nil {
		return nil
	}
	w := &Writer{
		c:    c,
		name: name,
		tid:  tid,
		recs: make([]Rec, c.cap),
		mask: int64(c.cap - 1),
	}
	c.mu.Lock()
	c.writers = append(c.writers, w)
	c.mu.Unlock()
	return w
}

// Writers returns the registered writers in registration order.
func (c *Collector) Writers() []*Writer {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Writer(nil), c.writers...)
}

// TotalDropped sums Dropped over every registered writer — the quick
// "did any ring wrap?" check CLIs use to warn that an exported trace is
// incomplete.
func (c *Collector) TotalDropped() int64 {
	var total int64
	for _, w := range c.Writers() {
		total += w.Dropped()
	}
	return total
}

// Writer is one goroutine's trace ring. All recording methods are no-ops
// on a nil receiver, so call sites can keep a possibly-nil writer and pay
// only a nil check when tracing is disabled.
type Writer struct {
	c    *Collector
	name string
	tid  int32
	recs []Rec
	mask int64
	// pos is the total number of records ever emitted; the ring slot of
	// record i is i&mask, so the last len(recs) records survive a wrap.
	pos atomic.Int64
}

// Name returns the writer's display name.
func (w *Writer) Name() string {
	if w == nil {
		return ""
	}
	return w.name
}

// TID returns the writer's track id.
func (w *Writer) TID() int32 {
	if w == nil {
		return -1
	}
	return w.tid
}

func (w *Writer) emit(r Rec) {
	if w == nil {
		return
	}
	p := w.pos.Load()
	w.recs[p&w.mask] = r
	w.pos.Store(p + 1) // release: the record precedes the new position
}

// Count records a counter sample at the current time. On a nil writer it
// costs one inlined nil check: the sample itself is a separate call.
func (w *Writer) Count(k Kind, v int64) {
	if w != nil {
		w.count(k, v)
	}
}

func (w *Writer) count(k Kind, v int64) {
	w.emit(Rec{TS: w.c.Now(), Arg: v, Kind: k})
}

// Begin returns a span start timestamp for a later Span call. Zero-cost
// beyond reading the clock; safe on a nil writer (returns 0).
func (w *Writer) Begin() int64 {
	if w == nil {
		return 0
	}
	return w.c.Now()
}

// Span records a duration event that began at startNS (from Begin) and
// ends now. arg carries kind-specific detail.
func (w *Writer) Span(k Kind, startNS, arg int64) {
	if w == nil {
		return
	}
	now := w.c.Now()
	w.emit(Rec{TS: startNS, Dur: now - startNS, Arg: arg, Kind: k})
}

// Instant records a zero-duration marker at the current time.
func (w *Writer) Instant(k Kind, arg int64) {
	if w == nil {
		return
	}
	w.emit(Rec{TS: w.c.Now(), Arg: arg, Kind: k})
}

// Len returns the number of records currently held (≤ capacity).
func (w *Writer) Len() int {
	if w == nil {
		return 0
	}
	p := w.pos.Load()
	if p > int64(len(w.recs)) {
		return len(w.recs)
	}
	return int(p)
}

// Dropped returns how many records were overwritten by ring wrap-around.
func (w *Writer) Dropped() int64 {
	if w == nil {
		return 0
	}
	if p := w.pos.Load(); p > int64(len(w.recs)) {
		return p - int64(len(w.recs))
	}
	return 0
}

// Records returns the surviving records oldest-first. It must not run
// concurrently with the owning goroutine's recording.
func (w *Writer) Records() []Rec {
	if w == nil {
		return nil
	}
	p := w.pos.Load()
	n := int64(len(w.recs))
	if p <= n {
		return append([]Rec(nil), w.recs[:p]...)
	}
	out := make([]Rec, 0, n)
	for i := p - n; i < p; i++ {
		out = append(out, w.recs[i&w.mask])
	}
	return out
}

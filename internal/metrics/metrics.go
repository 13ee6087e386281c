// Package metrics is the engine's runtime metrics registry: named atomic
// counters, gauges, and power-of-two histograms. Its design constraint is
// the disabled path: every handle type treats a nil receiver as a no-op,
// so instrumentation sites hold possibly-nil handles and pay one
// predictable nil check per operation when metrics are off — verified to
// be in the noise of a full simulation by the package's overhead test.
//
// The enabled path is lock-free too: handles are atomics, and the
// registry lock is taken only at registration and dump time, never per
// operation. Handles may therefore be updated from any number of
// goroutines concurrently.
package metrics

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics. The zero value is not usable; a nil
// *Registry is: every lookup on it returns a nil handle, whose operations
// are no-ops. That is the disabled-instrumentation fast path.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. On a nil
// registry it returns nil (a valid no-op handle).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use; nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use; nil on
// a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every registered metric.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistSnapshot
}

// Snapshot copies the registry's current values. Safe during updates
// (each value is read atomically; the set as a whole is not a consistent
// cut, which is fine for run-end reporting).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Write dumps every metric, sorted by name, one per line.
func (r *Registry) Write(w io.Writer) error {
	s := r.Snapshot()
	type line struct{ name, text string }
	var lines []line
	for name, v := range s.Counters {
		lines = append(lines, line{name, fmt.Sprintf("%-40s %d", name, v)})
	}
	for name, v := range s.Gauges {
		lines = append(lines, line{name, fmt.Sprintf("%-40s %d", name, v)})
	}
	for name, h := range s.Histograms {
		lines = append(lines, line{name, fmt.Sprintf("%-40s %s", name, h)})
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].name < lines[j].name })
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l.text); err != nil {
			return err
		}
	}
	return nil
}

// Counter is a monotonically increasing atomic counter. All methods are
// no-ops on a nil receiver.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-value metric. All methods are no-ops on a nil
// receiver.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// SetMax raises the gauge to v if v is larger.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the bucket count: bucket 0 holds values <= 0, bucket i
// holds values with bit length i (i.e. [2^(i-1), 2^i)), up to 2^62 and
// beyond in the last bucket.
const histBuckets = 64

// Histogram is a lock-free power-of-two-bucketed histogram of int64
// observations. All methods are no-ops on a nil receiver.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     Gauge
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// Observe records one value. On a nil histogram it costs one inlined
// nil check: the recording itself is a separate call.
func (h *Histogram) Observe(v int64) {
	if h != nil {
		h.observe(v)
	}
}

func (h *Histogram) observe(v int64) {
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	h.max.SetMax(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Max returns the largest observation (0 when empty or all <= 0).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Value()
}

// Snapshot returns a copy of the histogram's state.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Value()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnapshot is a point-in-time histogram copy.
type HistSnapshot struct {
	Buckets [histBuckets]int64
	Count   int64
	Sum     int64
	Max     int64
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) from
// the bucket boundaries: the smallest power-of-two boundary below which
// at least q of the observations fall. NaN-free: returns 0 when empty.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	target := int64(q * float64(s.Count))
	if target >= s.Count {
		target = s.Count - 1
	}
	var seen int64
	for i, n := range s.Buckets {
		seen += n
		if seen > target {
			if i == 0 {
				return 0
			}
			return int64(1) << uint(i) // upper edge of bucket i
		}
	}
	return s.Max
}

// Mean returns the snapshot's mean observation (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

func (s HistSnapshot) String() string {
	return fmt.Sprintf("count=%d mean=%.1f p50<=%d p99<=%d max=%d",
		s.Count, s.Mean(), s.Quantile(0.50), s.Quantile(0.99), s.Max)
}

package core

// Fleet observability, parent side: the receiver goroutines hand worker
// trace chunks, clock samples, and registry snapshots to the helpers
// here; the supervision paths record lifecycle incidents; and the export
// helpers assemble everything into one merged Chrome/Perfetto timeline
// with per-process tracks and wire flow events.

import (
	"fmt"
	"io"
	"os"
	"sort"

	"slacksim/internal/remote"
	"slacksim/internal/trace"
)

// noteWorkerClock records a clock-offset estimate for one worker
// incarnation. The worker sampled its own trace clock at workerNS (ns
// since its collector's creation) and the frame just arrived, so
// parentNow − workerNS estimates (parent clock − worker clock) plus the
// one-way wire latency — good enough to align tracks visually. Offsets
// are per (worker, epoch): every reconnect starts a fresh worker
// collector with a new clock origin.
func (m *Machine) noteWorkerClock(w *remoteWorker, epoch int, workerNS int64) {
	if m.tracer == nil || workerNS <= 0 {
		return
	}
	off := m.tracer.Now() - workerNS
	r := m.remote
	r.obsMu.Lock()
	if r.clockOff[w.id] == nil {
		r.clockOff[w.id] = make(map[int]int64)
	}
	r.clockOff[w.id][epoch] = off
	r.obsMu.Unlock()
}

// storeTraceChunk keeps the latest ring snapshot for the chunk's
// (worker, epoch) — each chunk is cumulative, so the newest supersedes —
// refreshes the clock-offset estimate from the chunk's own sample, and
// warns if the worker's rings wrapped.
func (m *Machine) storeTraceChunk(w *remoteWorker, tc *remote.TraceChunk) {
	m.noteWorkerClock(w, tc.Epoch, tc.ClockNS)
	r := m.remote
	r.obsMu.Lock()
	if r.chunks[w.id] == nil {
		r.chunks[w.id] = make(map[int]*remote.TraceChunk)
	}
	r.chunks[w.id][tc.Epoch] = tc
	r.obsMu.Unlock()
	var dropped int64
	for _, cw := range tc.Writers {
		dropped += cw.Dropped
	}
	m.warnTraceDropped(w, dropped)
}

// warnWorkerDropped is the FStats-time fallback for satellite drop
// reporting: publishes per-writer drop counters under the worker prefix
// and warns if no chunk already did.
func (m *Machine) warnWorkerDropped(w *remoteWorker, dropped map[string]int64) {
	var total int64
	for name, d := range dropped {
		total += d
		if m.met != nil && d > 0 {
			m.met.reg.Counter(fmt.Sprintf("worker%d.trace.dropped.%s", w.id, sanitizeMetricWord(name))).Add(d)
		}
	}
	if m.met != nil && total > 0 {
		m.met.reg.Counter(fmt.Sprintf("worker%d.trace.dropped", w.id)).Add(total)
	}
	m.warnTraceDropped(w, total)
}

// warnTraceDropped prints, once per worker, a stderr warning that the
// worker's trace rings wrapped and lost n events.
func (m *Machine) warnTraceDropped(w *remoteWorker, n int64) {
	if n <= 0 {
		return
	}
	r := m.remote
	r.obsMu.Lock()
	warned := r.dropWarn[w.id]
	r.dropWarn[w.id] = true
	r.obsMu.Unlock()
	if !warned {
		fmt.Fprintf(os.Stderr,
			"warning: worker %d trace dropped %d event(s) — per-core rings wrapped, oldest events lost (see worker%d.trace.dropped metrics)\n",
			w.id, n, w.id)
	}
}

// remoteIncident appends a supervision lifecycle marker (suspect,
// reconnecting, recovered, abandoned, adopted) for the merged timeline.
// TS is on the parent clock (0 when tracing is off, which keeps the
// record useful as plain forensics text).
func (m *Machine) remoteIncident(w *remoteWorker, state, detail string) {
	r := m.remote
	in := trace.Incident{
		TS:     m.tracer.Now(),
		PID:    w.id + 1,
		Name:   fmt.Sprintf("worker %d %s", w.id, state),
		Detail: detail,
	}
	r.obsMu.Lock()
	r.incidents = append(r.incidents, in)
	r.obsMu.Unlock()
}

// remoteTraceProcs assembles one merged-timeline process per stored
// (worker, epoch) chunk. Epoch 0 keeps the plain "worker N" name and the
// PID the incidents use; re-connected incarnations get their own track
// group so their rebased clocks don't interleave confusingly.
func (m *Machine) remoteTraceProcs() []trace.Proc {
	r := m.remote
	r.obsMu.Lock()
	defer r.obsMu.Unlock()
	nw := len(r.workers)
	var procs []trace.Proc
	for _, w := range r.workers {
		epochs := make([]int, 0, len(r.chunks[w.id]))
		for e := range r.chunks[w.id] {
			epochs = append(epochs, e)
		}
		sort.Ints(epochs)
		for _, e := range epochs {
			tc := r.chunks[w.id][e]
			name := fmt.Sprintf("worker %d", w.id)
			if e > 0 {
				name = fmt.Sprintf("worker %d (epoch %d)", w.id, e)
			}
			procs = append(procs, trace.Proc{
				PID:      1 + w.id + e*nw,
				Name:     name,
				OffsetNS: r.clockOff[w.id][e],
				Writers:  tc.Writers,
			})
		}
	}
	return procs
}

// TraceProcs returns the merged-timeline processes: the parent's own
// rings as pid 0 plus one process per collected worker incarnation.
// Nil when tracing was never enabled.
func (m *Machine) TraceProcs() []trace.Proc {
	if m.tracer == nil {
		return nil
	}
	procs := []trace.Proc{m.tracer.ParentProc("parent")}
	if m.remote != nil {
		procs = append(procs, m.remoteTraceProcs()...)
	}
	return procs
}

// TraceIncidents returns the supervision incidents recorded so far
// (remote runs only), oldest first.
func (m *Machine) TraceIncidents() []trace.Incident {
	if m.remote == nil {
		return nil
	}
	r := m.remote
	r.obsMu.Lock()
	defer r.obsMu.Unlock()
	return append([]trace.Incident(nil), r.incidents...)
}

// WriteTraceChrome exports the run's trace as Chrome trace-event JSON.
// Local drivers get the single-process export; a remote run with
// collected worker chunks gets the merged fleet timeline with clock
// rebasing, wire flow events, and supervision incidents.
func (m *Machine) WriteTraceChrome(w io.Writer) error {
	procs := m.TraceProcs()
	if len(procs) <= 1 {
		return m.tracer.WriteChrome(w) // handles the nil collector
	}
	return trace.WriteChromeMerged(w, procs, m.TraceIncidents())
}

// sanitizeMetricWord makes a writer name usable inside a metric name
// ("core 3" -> "core_3").
func sanitizeMetricWord(s string) string {
	b := []byte(s)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

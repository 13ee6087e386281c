package core

import (
	"fmt"
	"strings"
	"time"

	"slacksim/internal/cache"
	"slacksim/internal/cpu"
	"slacksim/internal/metrics"
	"slacksim/internal/remote"
	"slacksim/internal/trace"
)

func durNS(ns int64) time.Duration { return time.Duration(ns) }

// This file is the engine's observability surface: opt-in tracing and
// metrics with a nil-check fast path. When neither EnableTrace nor
// EnableMetrics has been called, the hot loops pay one predictable nil
// check per instrumentation site (see the overhead test in
// internal/metrics); when enabled, every simulation goroutine writes to
// its own lock-free trace ring and to shared atomic counters, so the
// engine's parallel timing is perturbed as little as possible.

// engineMet holds the engine's typed metric handles (nil when disabled).
type engineMet struct {
	reg          *metrics.Registry
	events       *metrics.Counter   // engine.events.processed
	globalAdv    *metrics.Counter   // engine.global.advances
	windowSlides *metrics.Counter   // engine.window.slides
	barriers     *metrics.Counter   // engine.quantum.barriers
	parks        *metrics.Counter   // engine.window.parks
	freezes      *metrics.Counter   // engine.reply.freezes
	mgrParks     *metrics.Counter   // engine.manager.parks
	adaptResizes *metrics.Counter   // engine.adapt.resizes
	gatesRaised  *metrics.Counter   // engine.gates.raised (sharded/remote gateBook)
	gatesElided  *metrics.Counter   // engine.gates.elided
	slack        *metrics.Histogram // engine.slack.sample
	gqDepth      *metrics.Histogram // engine.gq.depth

	// Sampled host-time spans of the fabric itself — the ledger rows under
	// "unattributed": one manager round in 64, phase by phase, and the
	// group loop's turns and waits. The same names on every driver.
	roundNS      [len(roundPhases)]*metrics.Histogram // engine.round.<phase>_ns
	groupTurnNS  *metrics.Histogram                   // engine.group.turn_ns
	groupYieldNS *metrics.Histogram                   // engine.group.yield_ns
	groupParkNS  *metrics.Histogram                   // engine.group.park_ns

	// Memory-event latency attribution (latency.go): machine-wide and
	// per-core request→reply latency, in simulated cycles and host ns.
	memLat       *metrics.Histogram   // engine.mem.lat_cycles
	memLatNS     *metrics.Histogram   // engine.mem.lat_host_ns
	coreMemLat   []*metrics.Histogram // engine.c%d.mem.lat_cycles
	coreMemLatNS []*metrics.Histogram // engine.c%d.mem.lat_host_ns
}

// EnableMetrics attaches a metrics registry to the machine. Must be
// called before Run*; nil leaves metrics disabled. The engine registers
// its pacing counters plus queue-depth histograms, and publishes the
// per-core CPU and cache counters into the registry when the run ends.
func (m *Machine) EnableMetrics(r *metrics.Registry) {
	if r == nil {
		return
	}
	m.met = &engineMet{
		reg:          r,
		events:       r.Counter("engine.events.processed"),
		globalAdv:    r.Counter("engine.global.advances"),
		windowSlides: r.Counter("engine.window.slides"),
		barriers:     r.Counter("engine.quantum.barriers"),
		parks:        r.Counter("engine.window.parks"),
		freezes:      r.Counter("engine.reply.freezes"),
		mgrParks:     r.Counter("engine.manager.parks"),
		adaptResizes: r.Counter("engine.adapt.resizes"),
		gatesRaised:  r.Counter("engine.gates.raised"),
		gatesElided:  r.Counter("engine.gates.elided"),
		slack:        r.Histogram("engine.slack.sample"),
		gqDepth:      r.Histogram("engine.gq.depth"),
		groupTurnNS:  r.Histogram("engine.group.turn_ns"),
		groupYieldNS: r.Histogram("engine.group.yield_ns"),
		groupParkNS:  r.Histogram("engine.group.park_ns"),
		memLat:       r.Histogram("engine.mem.lat_cycles"),
		memLatNS:     r.Histogram("engine.mem.lat_host_ns"),
	}
	for i, phase := range roundPhases {
		m.met.roundNS[i] = r.Histogram("engine.round." + phase + "_ns")
	}
	for i := 0; i < m.cfg.NumCores; i++ {
		m.met.coreMemLat = append(m.met.coreMemLat, r.Histogram(fmt.Sprintf("engine.c%d.mem.lat_cycles", i)))
		m.met.coreMemLatNS = append(m.met.coreMemLatNS, r.Histogram(fmt.Sprintf("engine.c%d.mem.lat_host_ns", i)))
	}
	m.strag = newStragglerState(m.cfg.NumCores)
	outDepth := r.Histogram("event.outq.depth")
	inDepth := r.Histogram("event.inq.depth")
	for i := range m.outQ {
		m.outQ[i].ObserveDepth(outDepth)
		m.inQ[i].ObserveDepth(inDepth)
	}
	if m.shards != nil {
		shardDepth := r.Histogram("event.shardq.depth")
		for s := 0; s < m.shards.n; s++ {
			m.shards.in[s].ObserveDepth(shardDepth)
		}
	}
	if m.remote != nil {
		remoteDepth := r.Histogram("event.remoteq.depth")
		for s := range m.remote.out {
			for c := range m.remote.out[s] {
				m.remote.out[s][c].ObserveDepth(remoteDepth)
			}
		}
	}
}

// EnableTrace attaches a trace collector to the machine. Must be called
// before Run*; nil leaves tracing disabled. One writer is registered per
// core thread, one for the manager, and one per shard worker.
func (m *Machine) EnableTrace(c *trace.Collector) {
	if c == nil {
		return
	}
	m.tracer = c
	n := m.cfg.NumCores
	m.coreTW = make([]*trace.Writer, n)
	for i := 0; i < n; i++ {
		m.coreTW[i] = c.Writer(fmt.Sprintf("core %d", i), int32(i))
	}
	m.mgrTW = c.Writer("manager", int32(n))
	if m.shards != nil {
		m.shardTW = make([]*trace.Writer, m.shards.n)
		for s := 0; s < m.shards.n; s++ {
			m.shardTW[s] = c.Writer(fmt.Sprintf("shard %d", s), int32(n+1+s))
		}
	}
	if m.remote != nil {
		// Parent end of the wire-flow correlation: every gate frame the
		// manager enqueues records a KWireSend whose flow id the worker's
		// KWireRecv echoes, so the merged export can draw the arrow.
		m.remote.wireTW = c.Writer("wire", int32(n+1))
	}
}

// publishObservability fills the Result's observability fields and
// publishes the end-of-run counter snapshot into the metrics registry.
// No-op when metrics are disabled.
func (m *Machine) publishObservability(res *Result) {
	if m.met == nil {
		return
	}
	r := m.met.reg
	res.Metrics = r
	res.EventsProcessed = m.evProcessed + m.evShard.Load()
	res.ManagerBusy = durNS(m.mgrBusyNS)
	for _, g := range m.groupOf {
		res.CoreBusy = append(res.CoreBusy, durNS(g.hostNS))
		res.CoreWait = append(res.CoreWait, durNS(g.waitNS))
	}

	r.Gauge("engine.global.final").Set(m.global.Load())
	r.Gauge("engine.gq.final_depth").Set(int64(m.gq.Len()))
	r.Gauge("engine.time_warps").Set(m.kernel.TimeWarps)
	for i := range m.waitCycles {
		r.Gauge(fmt.Sprintf("engine.c%d.wait_cycles", i)).Set(m.waitCycles[i])
	}

	// Straggler attribution (latency.go). Published for every driver —
	// zeros on the serial engine, which never attributes rounds — so the
	// three drivers emit identical metric-name sets for the same config.
	res.Stragglers = m.stragglers()
	for _, s := range res.Stragglers {
		r.Gauge(fmt.Sprintf("engine.c%d.straggler.held", s.Core)).Set(s.HeldRounds)
		r.Gauge(fmt.Sprintf("engine.c%d.straggler.ewma_ppm", s.Core)).Set(int64(s.EWMA * 1e6))
	}

	// Trace-ring loss accounting: when tracing ran alongside metrics,
	// surface every writer's overwritten-record count so a truncated
	// Chrome export no longer masquerades as complete.
	if m.tracer != nil {
		total := r.Counter("trace.dropped")
		for _, w := range m.tracer.Writers() {
			d := w.Dropped()
			r.Counter("trace.dropped." + strings.ReplaceAll(w.Name(), " ", "_")).Add(d)
			total.Add(d)
		}
	}

	// Wire-protocol traffic of a remote-sharded run: both sides of the
	// connections, so a sweep can report bytes/batch and codec overhead
	// next to the engine's pacing counters.
	if rw := res.Wire; rw != nil {
		publishWireStats(r, "remote.parent", rw.Parent)
		publishWireStats(r, "remote.workers", rw.Workers)
	}

	// Fault-tolerance activity of a remote run: all-zero gauges on an
	// undisturbed run, so dashboards can alert on any deviation.
	if rec := res.Recovery; rec != nil {
		r.Gauge("remote.recovery.reconnects").Set(rec.Reconnects)
		r.Gauge("remote.recovery.replayed_batches").Set(rec.ReplayedBatches)
		r.Gauge("remote.recovery.checkpoints").Set(rec.Checkpoints)
		r.Gauge("remote.recovery.checkpoint_bytes").Set(rec.CheckpointBytes)
		r.Gauge("remote.recovery.abandoned_workers").Set(rec.AbandonedWorkers)
		r.Gauge("remote.recovery.migrated_shards").Set(rec.MigratedShards)
	}

	for i, c := range m.cores {
		cpu.PublishStats(r, i, c.Stats())
	}
	cache.PublishL2Stats(r, m.aggregateL2Stats())
}

// publishWireStats sets one side's wire counters as gauges under prefix.
func publishWireStats(r *metrics.Registry, prefix string, w remote.WireStats) {
	r.Gauge(prefix + ".bytes_sent").Set(w.BytesSent)
	r.Gauge(prefix + ".bytes_recv").Set(w.BytesRecv)
	r.Gauge(prefix + ".frames_sent").Set(w.FramesSent)
	r.Gauge(prefix + ".frames_recv").Set(w.FramesRecv)
	r.Gauge(prefix + ".events_sent").Set(w.EventsSent)
	r.Gauge(prefix + ".events_recv").Set(w.EventsRecv)
	r.Gauge(prefix + ".batches_sent").Set(w.BatchesSent)
	r.Gauge(prefix + ".batches_recv").Set(w.BatchesRecv)
	r.Gauge(prefix + ".encode_ns").Set(w.EncodeNS)
	r.Gauge(prefix + ".decode_ns").Set(w.DecodeNS)
	r.Gauge(prefix + ".bytes_per_batch").Set(int64(w.BytesPerBatch()))
}

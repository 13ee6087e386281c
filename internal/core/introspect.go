package core

import (
	"fmt"
	"math"

	"slacksim/internal/introspect"
	"slacksim/internal/metrics"
)

// This file attaches a Machine to the live introspection server
// (internal/introspect): it installs the /metrics, /slack and /stallz
// sources and makes the ring high-water gauges, which the run attaches to
// every group's InQ and OutQ (makeFabric). The sources run on
// HTTP goroutines concurrent with the simulation, so they read only
// atomics and ring head/tail pairs — never the manager-owned GQ or kernel
// (which is why /stallz serves LiveSnapshot, not the watchdog's fuller
// owner-only snapshot).

// EnableIntrospection attaches the machine's live views to srv. Must be
// called after EnableMetrics (the views are built from the registry and
// the latency/straggler state) and before Run*; nil srv is a no-op.
// A single server outlives individual machines: each new run's
// EnableIntrospection replaces the previous run's sources.
func (m *Machine) EnableIntrospection(srv *introspect.Server) error {
	if srv == nil {
		return nil
	}
	if m.met == nil {
		return fmt.Errorf("core: EnableIntrospection requires EnableMetrics first")
	}
	m.introOn = true
	r := m.met.reg
	m.hwIn = r.Gauge("event.inq.high_water")
	m.hwOut = r.Gauge("event.outq.high_water")
	srv.SetMetrics(r.Snapshot)
	srv.SetSlack(m.slackSnapshot)
	srv.SetStall(func(format string) ([]byte, error) {
		rep := m.LiveSnapshot()
		if format == "json" {
			return rep.JSON()
		}
		return []byte(rep.Text()), nil
	})
	return nil
}

// gaugeMax adapts a metrics.Gauge to the ring's high-water observer: the
// producer-owned high-water field stays a plain int64 (no hot-path atomic),
// and each rising edge is mirrored into the gauge for race-free reads.
type gaugeMax struct{ g *metrics.Gauge }

func (o gaugeMax) Observe(v int64) { o.g.SetMax(v) }

// LiveSnapshot captures the engine's pacing state from any goroutine while
// the run is in flight: the same CoreReport rows as the stall watchdog's
// forensics, but with the GQ depth read from the manager's atomic mirror
// and without the kernel section (both are manager-owned and unsafe to
// touch concurrently). This is the /stallz payload on a healthy run.
func (m *Machine) LiveSnapshot() *StallReport {
	r := &StallReport{
		Global:  m.global.Load(),
		GQDepth: int(m.liveGQ.Load()),
		Cores:   m.coreReports(),
	}
	if sc := m.schemeLive.Load(); sc != nil {
		r.Scheme = *sc
	}
	return r
}

// slackSnapshot builds the /slack payload: global/root/per-core clocks and
// flags, ring depths (each core's group rings) and the high-waters over all
// rings, per-core memory-latency quantiles, and straggler attribution — all
// from atomics.
func (m *Machine) slackSnapshot() introspect.SlackSnapshot {
	s := introspect.SlackSnapshot{
		Attached:      true,
		Global:        m.global.Load(),
		GQDepth:       m.liveGQ.Load(),
		Done:          m.done.Load(),
		InQHighWater:  m.hwIn.Value(),
		OutQHighWater: m.hwOut.Value(),
	}
	if sc := m.schemeLive.Load(); sc != nil {
		s.Scheme = sc.String()
	}
	if v, held := m.globalMin(); held >= 0 {
		s.Root = v
	} else {
		s.Root = -1
	}
	ml := m.edge.v.Load()
	if ml == math.MaxInt64 {
		ml = -1
	}
	st := m.strag
	for i := range m.cores {
		in, out := m.ringDepths(i)
		c := introspect.SlackCore{
			ID:       i,
			Local:    m.local[i].v.Load(),
			MaxLocal: ml,
			Blocked:  m.blocked[i].Load() != 0,
			Parked:   m.members[i].wait.Load() == memberAtEdge,
			Frozen:   m.members[i].wait.Load() == memberFrozen,
			InQ:      in,
			OutQ:     out,
		}
		hs := m.met.coreMemLat[i].Snapshot()
		c.MemLatCount = hs.Count
		c.MemLatP50 = hs.Quantile(0.50)
		c.MemLatP99 = hs.Quantile(0.99)
		if st != nil {
			c.StragglerHeld = st.heldPub[i].v.Load()
			c.StragglerEWMA = float64(st.ewmaPPM[i].v.Load()) / 1e6
		}
		s.Cores = append(s.Cores, c)
	}
	for _, w := range m.remoteWorkerReports() {
		s.Remote = append(s.Remote, introspect.RemoteWorker{
			ID:         w.ID,
			State:      w.State,
			Shards:     w.Shards,
			Mark:       w.Mark,
			Reconnects: w.Reconnects,
			Epoch:      w.Epoch,
		})
	}
	return s
}

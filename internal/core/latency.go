package core

import (
	"time"

	"slacksim/internal/event"
)

// This file is the memory-event latency attribution layer: every request a
// core pushes through Env.Send is stamped (simulated issue time + host
// nanosecond), the manager copies the stamps into the reply it emits, and
// the delivery site (deliverInbox, shared by the serial, parallel and
// sharded drivers) attributes the full request→reply latency in simulated
// cycles and in host time to the requesting core's histograms. On top of
// that sits per-round straggler attribution: each manager round the
// global-time scan (globalMin) names the core whose effective local time
// held the global time back, feeding a per-core held-round count and an
// EWMA of the held fraction — the live answer to "which core is the
// straggler?".
//
// Everything here is behind the established nil-fast-path gate: with
// metrics disabled the stamps stay zero and each site pays one predictable
// nil/zero check (covered by the disabled-overhead budget test in
// internal/metrics).

// hostNS returns nanoseconds since the machine was built — the host clock
// the latency stamps and trace records share.
func (m *Machine) hostNS() int64 { return time.Since(m.epoch).Nanoseconds() }

// observeMemLatency attributes one delivered memory reply to core i's
// latency histograms (and the machine-wide aggregates): the simulated
// request→delivery lag and the host-time round trip through the manager.
// Called from deliverInbox, so all three drivers measure identically.
func (m *Machine) observeMemLatency(i int, ev *event.Event, local int64) {
	met := m.met
	if met == nil {
		return
	}
	met.memLat.Observe(local - ev.ReqTime)
	met.coreMemLat[i].Observe(local - ev.ReqTime)
	hostLat := m.hostNS() - ev.SendNS
	met.memLatNS.Observe(hostLat)
	met.coreMemLatNS[i].Observe(hostLat)
}

// stragglerAlpha is the EWMA smoothing factor and stragglerWindow the
// number of manager rounds per EWMA update. The per-round cost is one
// counter bump (the round's scan names the core); the O(N) decay pass runs
// once per window.
const (
	stragglerAlpha  = 0.125
	stragglerWindow = 64
)

// stragglerState is the manager-owned straggler attribution state. The
// held/winHeld/ewma slices are touched only in the manager role (and
// read after the run joins); heldPub/ewmaPPM are padded atomic mirrors the
// live /slack view reads concurrently.
type stragglerState struct {
	held    []int64 // total rounds core i held the global-time minimum
	winHeld []int64 // held counts within the current EWMA window
	rounds  int64
	ewma    []float64
	heldPub []padded // atomic mirror of held
	ewmaPPM []padded // atomic mirror of ewma, in parts-per-million
}

func newStragglerState(n int) *stragglerState {
	return &stragglerState{
		held:    make([]int64, n),
		winHeld: make([]int64, n),
		ewma:    make([]float64, n),
		heldPub: make([]padded, n),
		ewmaPPM: make([]padded, n),
	}
}

// noteStraggler charges the current manager round to core i, the one
// that held the global-time candidate (globalMin; -1: none). Called once
// per round from the manager loop when metrics are enabled; the serial
// driver never calls it (its global time is the loop induction variable,
// no core ever "holds it back").
func (m *Machine) noteStraggler(i int) {
	st := m.strag
	if st == nil || i < 0 {
		return
	}
	st.held[i]++
	st.heldPub[i].v.Store(st.held[i])
	st.winHeld[i]++
	if st.rounds++; st.rounds%stragglerWindow == 0 {
		for c := range st.ewma {
			sample := float64(st.winHeld[c]) / stragglerWindow
			st.winHeld[c] = 0
			st.ewma[c] = st.ewma[c]*(1-stragglerAlpha) + sample*stragglerAlpha
			st.ewmaPPM[c].v.Store(int64(st.ewma[c] * 1e6))
		}
	}
}

// Straggler summarises one core's share of the blame for the global time's
// pace over a run: how many manager rounds its effective local time held
// the global-time minimum (HeldRounds, HeldFrac of all attributed rounds)
// and the end-of-run EWMA of that held fraction.
type Straggler struct {
	Core       int     `json:"core"`
	HeldRounds int64   `json:"held_rounds"`
	HeldFrac   float64 `json:"held_frac"`
	EWMA       float64 `json:"ewma"`
}

// stragglers builds the per-core summary (post-join; manager-owned state
// is quiescent). Returns a zeroed slice for drivers that never attribute
// rounds (the serial engine), keeping Result and metric shapes identical
// across drivers.
func (m *Machine) stragglers() []Straggler {
	st := m.strag
	if st == nil {
		return nil
	}
	out := make([]Straggler, len(st.held))
	for i := range st.held {
		out[i] = Straggler{Core: i, HeldRounds: st.held[i], EWMA: st.ewma[i]}
		if st.rounds > 0 {
			out[i].HeldFrac = float64(st.held[i]) / float64(st.rounds)
		}
	}
	return out
}

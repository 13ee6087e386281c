// Package faultinject provides deterministic, cycle-triggered fault hooks
// for the slacksim engine, used to prove every fault-containment path end
// to end (panic recovery, ring-overflow backpressure, the stall watchdog's
// forensics, and the invariant auditor) without patching the engine or
// relying on randomness.
//
// Faults are seed-free: each fault names a target (a core, the manager or
// a memory shard) and a trigger clock — the target core's local simulated
// time, the global time for the manager, the visibility bound a shard is
// processed to — so the same plan fires at the same
// simulated instant on every run. The engine consults an installed plan
// through a single nil check per scheduler iteration; with no plan
// installed the hot paths are untouched.
//
// Typical use (a test proving panic containment):
//
//	plan := faultinject.NewPlan(faultinject.Fault{
//	        Kind: faultinject.Panic, Core: 1, At: 5000,
//	})
//	m.EnableFaults(plan)
//	_, err := m.RunParallel(core.SchemeS9) // returns a *core.SimError
package faultinject

import (
	"fmt"

	"slacksim/internal/event"
)

// Kind enumerates the injectable faults.
type Kind int

const (
	// Panic panics the target goroutine (core, Manager, or ShardWorker)
	// when its clock reaches At. Proves the engine's panic containment:
	// the run must return a *core.SimError with all goroutines joined.
	Panic Kind = iota
	// Stall freezes the target core at local time At: the core goroutine
	// stops ticking without parking, so the global time stops advancing
	// and the stall watchdog must fire with a forensic StallReport.
	Stall
	// RingFlood floods the target core's OutQ with filler events at local
	// time At until it overflows, exercising the MustPush backpressure
	// path (a contained ring-overflow SimError).
	RingFlood
	// ClockWarp moves the target core's local clock backwards by Dur
	// cycles at local time At — a synthetic violation of the engine's
	// monotone-clock invariant that the runtime auditor must catch.
	ClockWarp
	// DelayDelivery holds the target core's matching InQ events (EvKinds
	// filter; empty = all) for Dur cycles past their timestamps, for
	// events stamped at or after At. Under a conservative scheme this
	// makes deliveries late, which the auditor reports; under optimistic
	// schemes it widens the measured distortion. A delayed event is
	// delivered only once the core's clock reaches Time+Dur, so delaying
	// an event the core must block on stalls the run (and is then a
	// deterministic watchdog trigger).
	DelayDelivery
	// ConnDrop severs the parent↔worker connection of the targeted remote
	// shard worker (ShardWorker target, remote backend only) when the
	// global time reaches At — both directions fail immediately, as if the
	// TCP peer vanished. The supervisor must redial, replay, and resume.
	ConnDrop
	// HeartbeatStall simulates a silent hang: the parent stops counting
	// the target worker's inbound frames as liveness from global time At,
	// so the heartbeat staleness detector must escalate suspect→dead and
	// tear the connection down itself.
	HeartbeatStall
	// FrameCorrupt arms a one-shot checksum failure on the next frame the
	// parent receives from the target worker at global time At —
	// equivalent to a bit flip on the wire. The CRC envelope must turn it
	// into a structured CorruptFrameError and the supervisor must treat
	// the connection as broken and recover.
	FrameCorrupt
	// WorkerKill asks the run's Kill hook (core.RemoteOptions.Kill) to
	// terminate the target worker's process at global time At — the
	// distributed analogue of Panic, except the process gets no chance to
	// flush or say goodbye (SIGKILL). Recovery must restore from the last
	// checkpoint and replay.
	WorkerKill
)

// String returns the fault kind's name.
func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case Stall:
		return "stall"
	case RingFlood:
		return "ring-flood"
	case ClockWarp:
		return "clock-warp"
	case DelayDelivery:
		return "delay-delivery"
	case ConnDrop:
		return "conn-drop"
	case HeartbeatStall:
		return "heartbeat-stall"
	case FrameCorrupt:
		return "frame-corrupt"
	case WorkerKill:
		return "worker-kill"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// IsWire reports whether k is a wire-level fault: one that attacks the
// parent↔worker connection of the distributed backend rather than a
// simulation goroutine. Wire faults target ShardWorker ids and only
// apply to remote runs.
func (k Kind) IsWire() bool {
	switch k {
	case ConnDrop, HeartbeatStall, FrameCorrupt, WorkerKill:
		return true
	}
	return false
}

// Manager targets the simulation-manager goroutine (Panic only); its
// trigger clock is the global time.
const Manager = -1

// ShardWorker returns the target id of shard worker s (Panic, or a wire
// fault against the remote backend); its trigger clock is the shard's
// allowed-time gate (wire faults: the remote worker owning the shard).
func ShardWorker(s int) int { return -2 - s }

// IsShard reports whether target is a ShardWorker id, and which one.
func IsShard(target int) (int, bool) {
	if target <= -2 {
		return -2 - target, true
	}
	return 0, false
}

// Fault is one injected fault.
type Fault struct {
	// Kind selects the fault.
	Kind Kind
	// Core is the target: a core index, Manager, or ShardWorker(s).
	Core int
	// At is the trigger clock in simulated cycles: the target core's
	// local time (core targets) or the global time (Manager and shard
	// targets). A fault with At <= 0 triggers on the first iteration.
	At int64
	// Dur parameterises the fault: the backward jump of ClockWarp and the
	// extra delivery delay of DelayDelivery. Ignored by the other kinds.
	Dur int64
	// EvKinds restricts DelayDelivery to the listed event kinds; empty
	// delays every InQ event.
	EvKinds []event.Kind
}

// Matches reports whether the fault applies to an event of kind k
// (DelayDelivery filtering).
func (f *Fault) Matches(k event.Kind) bool {
	if len(f.EvKinds) == 0 {
		return true
	}
	for _, ek := range f.EvKinds {
		if ek == k {
			return true
		}
	}
	return false
}

// Validate checks the fault against the machine's core count.
func (f *Fault) Validate(numCores, numShards int) error {
	if f.Core >= numCores {
		return fmt.Errorf("faultinject: %v fault targets core %d of %d", f.Kind, f.Core, numCores)
	}
	if s, ok := IsShard(f.Core); ok {
		if f.Kind != Panic && !f.Kind.IsWire() {
			return fmt.Errorf("faultinject: %v fault cannot target shard worker %d (only panic and wire faults)", f.Kind, s)
		}
		if s >= numShards {
			return fmt.Errorf("faultinject: fault targets shard worker %d of %d", s, numShards)
		}
	} else if f.Kind.IsWire() {
		return fmt.Errorf("faultinject: %v fault must target a shard worker, not %d", f.Kind, f.Core)
	}
	if f.Core == Manager && f.Kind != Panic {
		return fmt.Errorf("faultinject: %v fault cannot target the manager (only panic)", f.Kind)
	}
	if f.Kind == DelayDelivery && f.Dur < 1 {
		return fmt.Errorf("faultinject: delay-delivery fault needs Dur >= 1")
	}
	if f.Kind == ClockWarp && f.Dur < 1 {
		return fmt.Errorf("faultinject: clock-warp fault needs Dur >= 1")
	}
	return nil
}

func (f Fault) String() string {
	return fmt.Sprintf("%v core=%d at=%d dur=%d", f.Kind, f.Core, f.At, f.Dur)
}

// Plan is an immutable set of faults to inject into one run. The engine
// partitions it per goroutine at EnableFaults time; runtime trigger state
// lives with the executing goroutine, so a Plan may be shared and reused.
type Plan struct {
	faults []Fault
}

// NewPlan builds a plan from the given faults.
func NewPlan(faults ...Fault) *Plan {
	return &Plan{faults: append([]Fault(nil), faults...)}
}

// Faults returns a copy of the plan's faults.
func (p *Plan) Faults() []Fault {
	if p == nil {
		return nil
	}
	return append([]Fault(nil), p.faults...)
}

// Validate checks every fault against the machine shape.
func (p *Plan) Validate(numCores, numShards int) error {
	if p == nil {
		return nil
	}
	for i := range p.faults {
		if err := p.faults[i].Validate(numCores, numShards); err != nil {
			return err
		}
	}
	return nil
}

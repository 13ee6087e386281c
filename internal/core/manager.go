package core

import (
	"math"

	"slacksim/internal/cache"
	"slacksim/internal/event"
	"slacksim/internal/sysemu"
)

// This file is the simulation-manager logic shared by the paced and serial
// drivers: draining the groups' OutQs, processing requests — directory/L2
// accesses through applyMemEvent, system calls through the kernel — and
// emitting replies into the groups' InQs. The serial loop keeps one GQ for
// both kinds (processBelow, processEvent); a paced run's GQ holds only the
// system calls, its memory requests waiting on their shards' heaps
// (sharded.go) until processShardBelow takes them.
// Every pass consumes events strictly in (timestamp, core, seq) order up to
// a bound: the global time (or its last quantum barrier) under conservative
// schemes, no bound at all under optimistic ones — every queued request
// becomes globally visible immediately, the source of the timing
// distortions of §3.2.

// drainOutQs moves every request the groups' OutQs hold to sink (the GQ, a
// shard ring, a wire staging buffer — the backend's choice), one PopBatch
// per group: O(K) whatever the core count. It reports whether any moved.
func (m *Machine) drainOutQs(sink func(event.Event)) bool {
	moved := false
	for k := 0; k < m.nGroups; k++ {
		m.drainBuf = m.groups[k].outQ.PopBatch(m.drainBuf[:0])
		for j := range m.drainBuf {
			sink(m.drainBuf[j])
		}
		moved = moved || len(m.drainBuf) > 0
	}
	return moved
}

// processBelow handles every queued event with Time < bound, oldest first
// (math.MaxInt64: everything). Deterministic given the event set.
func (m *Machine) processBelow(bound int64) bool {
	if a := m.audit; a != nil && bound != math.MaxInt64 {
		m.auditVisibility(&m.gq)
		a.procBound = max(a.procBound, bound)
	}
	did := false
	for {
		top := m.gq.Peek()
		if top == nil || top.Time >= bound {
			return did
		}
		m.processEvent(m.gq.Pop())
		did = true
	}
}

// processEvent applies one request: memory-hierarchy traffic goes to the
// L2/directory model; system calls go to the emulated kernel. Replies and
// coherence actions are pushed onto the destination cores' InQs.
func (m *Machine) processEvent(ev event.Event) {
	// Manager-role-only counter (observability; see observe.go).
	m.evProcessed++
	if m.met != nil {
		m.met.events.Inc()
	}
	switch ev.Kind {
	case event.KReadShared, event.KReadExcl, event.KUpgrade, event.KFetch:
		m.processMem(ev)
	case event.KSyscall:
		m.processSyscall(ev)
	}
}

func (m *Machine) processMem(ev event.Event) {
	applyMemEvent(m.l2, m.pushReply, ev)
}

// pushReply puts one reply for core into its group's InQ: the one way a
// reply reaches a core, from a shard hosted here or remote, or from the
// kernel. It runs inside the round's visibility step, after which the
// round wakes every group with a reply waiting (replied).
func (m *Machine) pushReply(core int, ev event.Event) {
	m.groupOf[core].inQ.MustPush(ev)
	m.replied = true
}

// applyMemEvent applies one memory-hierarchy request against the given
// L2/directory instance, emitting the fill and coherence notifications
// through push. It needs nothing of the Machine, which is what lets the
// hosted shards (sharded.go), the serial loop and the remote-shard worker
// (a separate process with no Machine; see worker.go) run the identical
// timing path.
func applyMemEvent(l2 *cache.L2System, push func(int, event.Event), ev event.Event) {
	core := int(ev.Core)
	// Retire the piggybacked victim first so the directory's presence bits
	// reflect the eviction before the new request is processed.
	if ev.VictimFlags&event.VictimValid != 0 {
		l2.RetireVictim(core, ev.VictimAddr, ev.VictimFlags&event.VictimDirty != 0, ev.Time)
	}
	var kind cache.ReqKind
	switch ev.Kind {
	case event.KReadExcl:
		kind = cache.GetM
	case event.KUpgrade:
		kind = cache.Upgrade
	default:
		kind = cache.GetS
	}
	fill, invs := l2.Access(core, ev.Addr, kind, ev.Time)
	for _, inv := range invs {
		sendInvVia(push, inv)
	}
	for _, inv := range l2.DrainBackInvs() {
		sendInvVia(push, inv)
	}
	push(core, event.Event{
		Kind: event.KFill,
		Core: ev.Core,
		Time: fill.Time,
		Addr: ev.Addr,
		Aux:  int64(fill.Grant),
		// Echo the request's latency-attribution stamps (latency.go) so
		// the delivery site can measure the full round trip. Zero when
		// metrics are off.
		ReqTime: ev.ReqTime,
		SendNS:  ev.SendNS,
	})
}

// processShardBelow pops every event stamped below bound off one shard's
// heap, in (timestamp, core, seq) order, through applyMemEvent — the one
// processing pass shared by the hosted shards (in-process or adopted) and
// the remote worker, so their reply order cannot drift apart. It returns
// the number of events processed.
func processShardBelow(gq *event.Heap, l2 *cache.L2System, bound int64, push func(int, event.Event)) int64 {
	n := int64(0)
	for {
		top := gq.Peek()
		if top == nil || top.Time >= bound {
			return n
		}
		applyMemEvent(l2, push, gq.Pop())
		n++
	}
}

func sendInvVia(push func(int, event.Event), inv cache.InvMsg) {
	kind := event.KInv
	if inv.Downgrade {
		kind = event.KDowngrade
	}
	push(inv.Core, event.Event{
		Kind: kind,
		Core: int32(inv.Core),
		Time: inv.Time,
		Addr: inv.Addr,
	})
}

func (m *Machine) processSyscall(ev event.Event) {
	core := int(ev.Core)
	res := m.kernel.Syscall(core, ev.Time, ev.Aux, ev.Args)
	// A critical latency after the call, as the fastest memory reply:
	// the cores' skip horizon (coreTurn) relies on no reply landing sooner.
	replyAt := ev.Time + m.cfg.Cache.CriticalLatency()
	for _, eff := range res.Effects {
		switch eff.Kind {
		case sysemu.EffectStartCore:
			m.pushReply(eff.Core, event.Event{
				Kind: event.KStart,
				Core: int32(eff.Core),
				Time: replyAt,
				Addr: eff.PC,
				Aux:  eff.Arg,
			})
		case sysemu.EffectStopCore:
			m.pushReply(eff.Core, event.Event{
				Kind: event.KStop,
				Core: int32(eff.Core),
				Time: replyAt,
			})
		case sysemu.EffectEndSim:
			m.endTime = ev.Time
			m.exitCode = eff.Code
			m.done.Store(true)
			// No reply, as in the serial loop: the exiting core would run
			// on past its exit, into whatever follows, until it saw done.
			return
		case sysemu.EffectResetStats:
			m.roiTime.Store(ev.Time)
		}
	}
	if res.Block {
		// The kernel queued the caller; the grant arrives via Notify when
		// another thread releases it. Until then the core's frozen clock
		// must not hold back the global time (the releaser could never
		// reach its releasing operation otherwise). The store is made in
		// the manager role, so the role's next globalMin scan already
		// excludes this core.
		m.blocked[core].Store(1)
		return
	}
	m.pushReply(core, event.Event{
		Kind: event.KSyscallDone,
		Core: ev.Core,
		Time: replyAt,
		Aux:  res.Ret,
		Flag: res.Retry,
	})
}

package core

import (
	"math"
	"math/bits"

	"slacksim/internal/cache"
	"slacksim/internal/event"
	"slacksim/internal/sysemu"
)

// This file is the simulation-manager logic shared by the parallel and
// serial drivers: draining OutQs into the GQ, processing GQ entries
// (directory/L2 accesses and system calls) and emitting InQ notifications.
// processBelow consumes events strictly in (timestamp, core, seq) order up
// to a bound: the global time (or its last quantum barrier) under
// conservative schemes, no bound at all under optimistic ones — every
// queued request becomes globally visible immediately, the source of the
// timing distortions of §3.2.

// drainAll moves every core's pending requests to sink. This is the full
// O(N) walk — the final drain, and the reference the dirty-set test checks
// against; the manager rounds drain through the dirty set (drainDirty).
func (m *Machine) drainAll(sink func(event.Event)) bool {
	moved := false
	for i := range m.outQ {
		moved = m.drainOutQ(i, sink) || moved
	}
	return moved
}

// drainOutQ pops core i's OutQ in one PopBatch pass into the reusable
// buffer and hands each request to sink.
func (m *Machine) drainOutQ(i int, sink func(event.Event)) bool {
	m.drainBuf = m.outQ[i].PopBatch(m.drainBuf[:0])
	for j := range m.drainBuf {
		sink(m.drainBuf[j])
	}
	return len(m.drainBuf) > 0
}

// markOutDirty records that core i's OutQ received a push since the
// manager's last drain: one bit per core in a per-64-core atomic word.
// Called by the core-side push path after the ring write. The
// already-set fast path keeps a streak of pushes to the same ring at one
// extra atomic load each; only the first push of a round pays the CAS.
func (m *Machine) markOutDirty(i int) {
	w := &m.outDirty[i>>6].v
	bit := uint64(1) << uint(i&63)
	for {
		old := w.Load()
		if old&bit != 0 {
			return
		}
		if w.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// drainDirty drains only the OutQs that actually received requests since
// the last round, handing each request to sink (the GQ, a shard ring, a
// wire staging buffer — the backend's choice): each dirty word is
// atomically swapped to zero and the set bits' rings drained. O(dirty),
// not O(N).
//
// No event is ever stranded: a push stores the ring slot and tail before
// setting the dirty bit, and the manager swaps the bit before reading the
// tail — so in the total order of atomic operations, a bit cleared by the
// swap implies the corresponding push's tail store precedes the drain's
// tail load, and the event is consumed; a push whose bit-set follows the
// swap leaves its bit for the next round.
func (m *Machine) drainDirty(sink func(event.Event)) bool {
	moved := false
	for w := range m.outDirty {
		set := m.outDirty[w].v.Swap(0)
		for set != 0 {
			i := w<<6 | bits.TrailingZeros64(set)
			set &= set - 1
			moved = m.drainOutQ(i, sink) || moved
		}
	}
	return moved
}

// processBelow handles every queued event with Time < bound, oldest first
// (math.MaxInt64: everything). Deterministic given the event set.
func (m *Machine) processBelow(bound int64) bool {
	if m.audit != nil && bound != math.MaxInt64 {
		m.auditVisibility(bound)
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
	// Manager-goroutine-only counter (observability; see observe.go).
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

// pushReply delivers one manager-produced reply toward core i: a ring push
// plus a (possibly coalesced) wake-up under the threaded drivers, a plain
// slice append under the fused driver — where producer and consumer are
// the same goroutine, so no ring, notify, or memory ordering is needed.
func (m *Machine) pushReply(core int, ev event.Event) {
	if m.fused {
		m.fusedIn[core] = append(m.fusedIn[core], ev)
		m.fusedNoteInDepth(core)
		return
	}
	m.inQ[core].MustPush(ev)
	m.deferNotify(core)
}

// deferNotify wakes core i for a freshly pushed reply — immediately, or,
// inside a manager processing pass (beginNotifyBatch), by recording the
// core in the pass's pending set so one notifyCore per core replaces one
// per event. Deferring is safe: the reply is already in the ring, so a
// core freezing between the push and the flush sees the event in its
// final predicate check and never sleeps.
func (m *Machine) deferNotify(core int) {
	if m.notifyBatch {
		m.notifyPend[core>>6] |= 1 << uint(core&63)
		return
	}
	m.notifyCore(core)
}

// beginNotifyBatch starts coalescing deferNotify calls (manager goroutine
// only; the shard workers keep per-push notifies on their own rings).
func (m *Machine) beginNotifyBatch() { m.notifyBatch = true }

// flushNotifyBatch issues the coalesced wake-ups and ends the batch.
func (m *Machine) flushNotifyBatch() {
	m.notifyBatch = false
	for w := range m.notifyPend {
		set := m.notifyPend[w]
		if set == 0 {
			continue
		}
		m.notifyPend[w] = 0
		for set != 0 {
			i := w<<6 | bits.TrailingZeros64(set)
			set &= set - 1
			m.notifyCore(i)
		}
	}
}

// applyMemEvent applies one memory-hierarchy request against the given
// L2/directory instance, emitting the fill and coherence notifications
// through push. It needs nothing of the Machine, which is what lets the
// in-process shard workers (their own instances and rings) and the
// remote-shard worker (a separate process with no Machine; see worker.go)
// run the identical timing path as the unsharded manager.
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
// processing pass shared by the in-process shard workers, the remote
// worker and the parent's adopted shards, so their reply order cannot
// drift apart. It returns the number of events processed.
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
	replyAt := ev.Time + m.cfg.SyscallLat
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
		case sysemu.EffectResetStats:
			m.roiTime.Store(ev.Time)
		}
	}
	if res.Block {
		// The kernel queued the caller; the grant arrives via Notify when
		// another thread releases it. Until then the core's frozen clock
		// must not hold back the global time (the releaser could never
		// reach its releasing operation otherwise). The leaf refresh
		// installs the blocked sentinel in the min-tree; it runs on the
		// manager goroutine, so the next globalMin read already excludes
		// this core, exactly as the old minLocal scan did.
		m.blocked[core].v.Store(1)
		if !m.fused {
			m.refreshMinLeaf(core)
		}
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

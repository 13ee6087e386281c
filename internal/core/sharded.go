package core

import (
	"fmt"
	"math"

	"slacksim/internal/cache"
	"slacksim/internal/event"
	"slacksim/internal/faultinject"
	"slacksim/internal/trace"
)

// This file implements the paper's §2.2 scaling hook: "If the simulation
// manager thread ever becomes a bottleneck it is possible to split the
// functionality of the manager thread also into several threads."
//
// With Config.ManagerShards = S > 1, memory-hierarchy requests are routed
// by NUCA bank to S shards, each owning a disjoint set of L2 banks (bank
// mod S), their directory state, their crossbar ports, and their memory
// channels (the cache config's DRAMChannels is pinned to S so channel
// ownership is exact). An unsharded machine is S = 1: one shard holding
// every bank on the machine's own L2 instance. The shards have no
// goroutines of their own: the manager round hosts them, on whichever
// group holds the manager role (parti-gem5's partitioning — the threads
// that run the cores also run the memory side). The drain routes each
// memory request onto its shard's heap and each system call onto the GQ;
// the visibility step processes every shard's heap below the scheme's
// bound, shard after shard, before the GQ.
//
// Determinism for conservative schemes is preserved because the state the
// shards mutate is disjoint per line, and each shard processes its requests
// in (timestamp, core, seq) order — the serial engine's order restricted to
// that shard — inside the round's visibility step, so every reply is in its
// group's InQ before the round publishes the global time. A sharded run is
// bit-identical to the serial reference built from the same cache
// configuration (docs/engine.md, "Sharded managers").

// hostedShard is one memory shard and the loop that processes it: an
// in-process shard, or a remote one at either end of the wire — on its
// worker (worker.go), or adopted into the parent after that worker was
// abandoned (adoptWorker). In the parent it is manager role only.
type hostedShard struct {
	idx int
	l2  *cache.L2System
	gq  event.Heap
	// skip suppresses an adopted shard's first replies, the ones its
	// replay regenerates and the dead worker had already delivered.
	skip int64
	// reply delivers one of the shard's replies: into the group's InQ in
	// the parent (pushReply; minus skip for an adopted shard), into the
	// shard's next reply batch on a worker.
	reply func(core int, ev event.Event)
	tw    *trace.Writer // the "shard <idx>" trace row (in-process only)
	fi    *injected     // faults aimed at ShardWorker(idx) (in-process only)
}

// hostShards builds the n in-process shards of a machine. Shard 0 runs on
// m.l2, which a serial run uses whole, and every other shard on an instance
// of its own: a Machine is single-use, so a paced run and a serial one
// never share m.l2.
func (m *Machine) hostShards(n int) error {
	for s := 0; s < n; s++ {
		l2 := m.l2
		if s > 0 {
			var err error
			if l2, err = cache.NewL2System(m.cfg.Cache); err != nil {
				return fmt.Errorf("core: %w", err)
			}
		}
		m.shards = append(m.shards, &hostedShard{idx: s, l2: l2, reply: m.pushReply})
	}
	return nil
}

// shardOf returns the shard owning addr's bank.
func (m *Machine) shardOf(addr uint64) int {
	return m.shards[0].l2.BankOf(addr) % len(m.shards)
}

// shardBackend returns the in-process manager backend: the drain routes
// memory requests onto their shard's heap (system calls onto the GQ) and
// samples the heaps' depths; the gate audits (Config.Audit) and processes
// every shard's heap below allowed, inline, so its replies are in the
// groups' InQs when it returns.
func (m *Machine) shardBackend() mgrBackend {
	for s, h := range m.shards {
		if m.fiShard != nil {
			h.fi = newInjected(m.fiShard[s])
		}
	}
	route := m.routeToShard
	return mgrBackend{
		drain: func(int64) bool {
			moved := m.drainOutQs(route)
			if m.met != nil {
				for _, h := range m.shards {
					m.met.shardDepth.Observe(int64(h.gq.Len()))
				}
			}
			return moved
		},
		gate: func(allowed int64) int64 {
			if m.audit != nil && allowed != math.MaxInt64 {
				for _, h := range m.shards {
					m.auditVisibility(&h.gq)
				}
			}
			return m.processHosted(m.shards, allowed)
		},
		deadlockSound: true,
	}
}

// routeToShard sends one core request to its processor: memory traffic to
// the owning shard's heap, system calls to the manager's own queue.
func (m *Machine) routeToShard(ev event.Event) {
	if ev.Kind == event.KSyscall {
		m.gq.Push(ev)
		return
	}
	m.shards[m.shardOf(ev.Addr)].gq.Push(ev)
}

// processHosted processes every hosted shard's requests stamped below
// bound, shard after shard, and returns how many it processed. Runs in the
// round's visibility step; nil entries (remote shards still on their
// workers) are skipped.
func (m *Machine) processHosted(hs []*hostedShard, bound int64) int64 {
	n := int64(0)
	for _, h := range hs {
		if h != nil {
			n += m.processShard(h, bound)
		}
	}
	return n
}

// processShard is one shard's part of the visibility step and returns how
// many events it processed. A panic in it, an injected one included, is
// contained as shard idx's and ends the run — on an unsharded machine too,
// whose memory side is shard 0.
func (m *Machine) processShard(h *hostedShard, bound int64) (n int64) {
	if top := h.gq.Peek(); h.fi == nil && (top == nil || top.Time >= bound) {
		return 0 // most rounds: nothing due, and no deferred recover to pay for
	}
	defer m.containPanic(faultinject.ShardWorker(h.idx), "shard-worker")
	if h.fi != nil {
		applyPanicFaults(h.fi, bound, fmt.Sprintf("shard-worker %d", h.idx))
	}
	ps := h.tw.Begin()
	if n = processShardBelow(&h.gq, h.l2, bound, h.reply); n == 0 {
		return 0
	}
	m.evShard += n
	h.tw.Span(trace.KProcess, ps, n)
	if m.met != nil {
		m.met.events.Add(n)
	}
	return n
}

// aggregateL2Stats sums the hierarchy counters across shards: hosted
// in-process, or remote workers (whose final counters arrive in their
// FStats frames).
func (m *Machine) aggregateL2Stats() cache.L2Stats {
	if m.serialMode {
		// The serial loop processes every request on the manager's own
		// instance, whatever shard geometry the machine was built with.
		return m.l2.Stats
	}
	if m.remote != nil && m.remote.workers != nil {
		var total cache.L2Stats
		for i := range m.remote.l2stats {
			addL2Stats(&total, m.remote.l2stats[i])
		}
		return total
	}
	var total cache.L2Stats
	for _, h := range m.shards {
		addL2Stats(&total, h.l2.Stats)
	}
	return total
}

func addL2Stats(total *cache.L2Stats, st cache.L2Stats) {
	total.Accesses += st.Accesses
	total.Hits += st.Hits
	total.Misses += st.Misses
	total.DRAMReads += st.DRAMReads
	total.DRAMWrites += st.DRAMWrites
	total.InvsSent += st.InvsSent
	total.Downgrades += st.Downgrades
	total.L2Evictions += st.L2Evictions
	total.L1Writebacks += st.L1Writebacks
	total.OrderViolations += st.OrderViolations
}

package core

import (
	"fmt"
	"runtime"
	"sync"

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
// by NUCA bank to S shard worker goroutines, each owning a disjoint set of
// L2 banks (bank mod S), their directory state, their crossbar ports, and
// their memory channels (the cache config's DRAMChannels is pinned to S so
// channel ownership is exact). The main manager thread keeps the kernel
// (system calls), the global time, and the window pacing.
//
// Determinism for conservative schemes is preserved because the state the
// shards mutate is disjoint per line, each shard processes its events in
// (timestamp, core, seq) order, and the pacing thread raises the windows
// only after every shard holding a request below the newly allowed time
// has been gated there and its watermark has passed the gate — so every
// reply is in flight before any core is allowed to reach its timestamp. A
// sharded run is bit-identical to the serial reference built from the same
// cache configuration.

// shardState is the per-machine sharding plumbing (nil when unsharded).
type shardState struct {
	n    int
	l2   []*cache.L2System
	in   []*event.Ring   // main -> shard s
	out  [][]*event.Ring // shard s -> core i
	gate []padded        // per-shard allowed-time target
	mark []padded        // per-shard processed-through watermark
	book *gateBook       // what each shard holds below no gate (manager only)
}

func newShardState(cfg Config) (*shardState, error) {
	s := &shardState{n: cfg.ManagerShards}
	for i := 0; i < s.n; i++ {
		l2, err := cache.NewL2System(cfg.Cache)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		s.l2 = append(s.l2, l2)
		in := event.NewRing(cfg.RingCap * cfg.NumCores)
		in.SetName(fmt.Sprintf("shardq.s%d", i))
		s.in = append(s.in, in)
		rings := make([]*event.Ring, cfg.NumCores)
		for c := range rings {
			rings[c] = event.NewRing(cfg.RingCap)
			rings[c].SetName(fmt.Sprintf("shard%d.c%d", i, c))
		}
		s.out = append(s.out, rings)
	}
	s.gate = make([]padded, s.n)
	s.mark = make([]padded, s.n)
	return s, nil
}

// shardOf returns the shard owning addr's bank.
func (m *Machine) shardOf(addr uint64) int {
	return m.shards.l2[0].BankOf(addr) % m.shards.n
}

// startShards spawns the shard worker goroutines and returns the sharded
// manager backend: memory events are routed to the owning shard's ring
// (system calls stay on the manager's own queue), and the gate raises the
// allowed time of every shard with a request below it and waits for their
// watermarks, so each round's replies are in the cores' rings before the
// windows move.
func (m *Machine) startShards(wg *sync.WaitGroup) mgrBackend {
	m.shards.book = m.newGateBook(m.shards.n)
	for sidx := 0; sidx < m.shards.n; sidx++ {
		wg.Add(1)
		go func(sidx int) {
			defer wg.Done()
			defer m.containPanic(faultinject.ShardWorker(sidx), "shard-worker")
			m.shardWorker(sidx)
		}(sidx)
	}
	route := m.routeToShard
	return mgrBackend{
		drain:         func(int64) bool { return m.drainDirty(route) },
		gate:          m.raiseShardGates,
		deadlockSound: true,
	}
}

// routeToShard sends one core request to its processor: memory traffic to
// the owning shard (and its gate book), system calls to the manager's own
// queue.
func (m *Machine) routeToShard(ev event.Event) {
	if ev.Kind == event.KSyscall {
		m.gq.Push(ev)
		return
	}
	s := m.shardOf(ev.Addr)
	m.shards.book.note(s, ev.Time)
	m.shards.in[s].MustPush(ev)
}

// raiseShardGates lets every shard holding a request below allowed process
// through it, and blocks until each shard's watermark has passed the last
// gate raised on it.
func (m *Machine) raiseShardGates(allowed int64) bool {
	sh := m.shards
	for i := range sh.gate {
		if sh.book.raise(i, allowed) {
			sh.gate[i].v.Store(allowed)
		}
	}
	for i := range sh.mark {
		for sh.mark[i].v.Load() < sh.book.procs[i].gate && !m.done.Load() {
			runtime.Gosched()
		}
	}
	return false
}

// shardWorker owns one bank shard: it consumes routed requests in
// timestamp order up to the published gate and emits replies on its own
// per-core rings.
func (m *Machine) shardWorker(sidx int) {
	sh := m.shards
	l2 := sh.l2[sidx]
	var gq event.Heap
	var drainBuf []event.Event
	push := func(core int, ev event.Event) {
		sh.out[sidx][core].MustPush(ev)
		m.notifyCore(core)
	}
	var sw *trace.Writer
	if m.shardTW != nil {
		sw = m.shardTW[sidx]
	}
	measure := m.met != nil
	var fi *injected
	if m.fiShard != nil {
		fi = newInjected(m.fiShard[sidx])
	}
	for !m.done.Load() {
		allowed := sh.gate[sidx].v.Load()
		if fi != nil {
			applyPanicFaults(fi, allowed, fmt.Sprintf("shard-worker %d", sidx))
		}
		drainBuf = sh.in[sidx].PopBatch(drainBuf[:0])
		for j := range drainBuf {
			gq.Push(drainBuf[j])
		}
		moved := len(drainBuf) > 0
		ps := sw.Begin()
		n := processShardBelow(&gq, l2, allowed, push)
		did := n > 0
		if did {
			m.evShard.Add(n)
			sw.Span(trace.KProcess, ps, n)
			if measure {
				m.met.events.Add(n)
			}
		}
		if sh.mark[sidx].v.Load() < allowed {
			sh.mark[sidx].v.Store(allowed)
			did = true
		}
		if !moved && !did {
			runtime.Gosched()
		}
	}
}

// aggregateL2Stats sums the hierarchy counters across shards — local
// goroutines or remote workers (whose final counters arrive in their
// FStats frames) — or returns the single manager's stats.
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
	if m.shards == nil {
		return m.l2.Stats
	}
	var total cache.L2Stats
	for _, l2 := range m.shards.l2 {
		addL2Stats(&total, l2.Stats)
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

package core

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"slacksim/internal/cache"
	"slacksim/internal/event"
	"slacksim/internal/faultinject"
	"slacksim/internal/remote"
	"slacksim/internal/trace"
)

// This file is the parent side of the distributed remote-shard backend
// (ROADMAP item 3): the memory-hierarchy shards of the sharded manager
// (sharded.go) move into separate OS processes, coordinated over the
// internal/remote wire protocol. The parent keeps everything whose state
// is shared — the core loops (which read and write the functional memory
// image directly), the kernel, the global time and the window pacing —
// and the workers keep what is private per shard: the timing-only
// L2/directory state, which carries no data (see internal/cache's
// package doc).
//
// Determinism is inherited from the in-process sharded driver. The round
// structure is the same: the global-time candidate is read before the
// OutQ drain, so every event below it is routed this round; batches are
// written to a worker's connection before the gate frame, and TCP
// preserves order, so a worker that has seen gate=allowed has every
// event below allowed queued; the worker writes all its reply batches
// before the watermark, so a parent that has seen watermark >= allowed
// has every reply below allowed in the cores' rings before it raises any
// window. Only a worker holding an event below allowed is gated at all
// (the gate book, round.go). The wire adds only host latency — which a
// slack window of s cycles absorbs exactly as it absorbs host scheduling
// jitter.
//
// Fault tolerance rests on the same in-order invariants. Every outbound
// frame is appended to a per-worker replay journal and sent from it;
// workers checkpoint their timing state every K gates, which lets the
// parent truncate the journal. When a connection dies — detected by a
// read/write error, a checksum failure, or heartbeat staleness — a
// per-worker supervisor redials with bounded, backed-off retries,
// restores the worker from the stored checkpoint, and replays the
// journal. Because every journaled event after gate g carries a
// timestamp >= g, the restored worker regenerates the *identical* reply
// sequence the lost connection swallowed, and the parent suppresses the
// prefix it had already delivered (counted per shard) — so a recovered
// run is bit-exact with an undisturbed one. When the retry budget runs
// out the worker is abandoned and its shards migrate into the parent's
// in-process path (the same applyMemEvent), trading the lost
// parallelism for a completed, still bit-exact run.

// RemoteOptions configures a distributed run beyond the initial
// transports: recovery hooks, heartbeat pacing, and checkpoint cadence.
type RemoteOptions struct {
	// Transports are the initial worker connections, one per worker
	// (shards are distributed round-robin over them).
	Transports []remote.Transport
	// Redial, when set, reconnects to worker i after a connection
	// failure (slacksim re-dials the worker's address, which a restarted
	// slackworker or the -remote-spawn listener answers with a new
	// session). Nil disables recovery: the first failure abandons the
	// worker and migrates its shards in-process.
	Redial func(worker int) (remote.Transport, error)
	// Kill, when set, ends worker i from the worker side — the hook behind
	// the faultinject.WorkerKill chaos fault (the chaos tests close the
	// worker's end of its pipe). Nil falls back to severing the connection
	// from the parent side.
	Kill func(worker int) error
	// Heartbeat is the idle interval after which a worker volunteers a
	// heartbeat frame and the parent's staleness thresholds are scaled
	// (suspect at 2×, dead at 4×). 0 means the 1s default; < 0 disables
	// heartbeats (connection errors still drive recovery).
	Heartbeat time.Duration
	// CheckpointEvery is the gate cadence of worker checkpoints. 0 means
	// the default of 64; < 0 disables checkpointing (recovery then
	// replays the whole run's journal).
	CheckpointEvery int
	// RetryBudget is the redial attempts allowed per failure incident.
	// 0 means the default of 3; < 0 means no retries.
	RetryBudget int
	// RetryBackoff paces the redial attempts (zero value =
	// remote.DefaultBackoff).
	RetryBackoff remote.Backoff
}

func (o *RemoteOptions) heartbeat() time.Duration {
	if o.Heartbeat < 0 {
		return 0
	}
	if o.Heartbeat == 0 {
		return time.Second
	}
	return o.Heartbeat
}

// heartbeatMS renders the heartbeat for the Hello frame (-1 = disabled,
// so the worker's own "0 means default" rule cannot re-enable it).
func (o *RemoteOptions) heartbeatMS() int64 {
	hb := o.heartbeat()
	if hb == 0 {
		return -1
	}
	return hb.Milliseconds()
}

func (o *RemoteOptions) checkpointEvery() int {
	if o.CheckpointEvery < 0 {
		return 0
	}
	if o.CheckpointEvery == 0 {
		return 64
	}
	return o.CheckpointEvery
}

func (o *RemoteOptions) retryBudget() int {
	if o.RetryBudget < 0 {
		return 0
	}
	if o.RetryBudget == 0 {
		return 3
	}
	return o.RetryBudget
}

// RecoveryStats summarises the fault-tolerance activity of a remote run
// (all zero on an undisturbed run).
type RecoveryStats struct {
	// Reconnects counts successful worker session resumes.
	Reconnects int64 `json:"reconnects"`
	// ReplayedBatches counts journal entries replayed to restored
	// workers (and into adopted in-process shards).
	ReplayedBatches int64 `json:"replayed_batches"`
	// Checkpoints and CheckpointBytes count worker checkpoint frames
	// received and their total payload size.
	Checkpoints     int64 `json:"checkpoints"`
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	// AbandonedWorkers counts workers whose retry budget ran out;
	// MigratedShards counts their shards now simulated in-process.
	AbandonedWorkers int64 `json:"abandoned_workers"`
	MigratedShards   int64 `json:"migrated_shards"`
}

// remoteState is the per-machine distributed plumbing (nil unless
// Config.RemoteShards > 0). The reply rings exist from NewMachine (they
// are part of coreRings); the workers are attached by RunRemoteSharded.
type remoteState struct {
	n   int
	out [][]*event.Ring // shard s -> core i reply rings (recv goroutines produce)

	opts    *RemoteOptions
	session string

	workers []*remoteWorker
	owner   []int // shard index -> worker index

	// stage accumulates the current round's routed events per shard
	// (manager goroutine only).
	stage [][]event.Event
	book  *gateBook // per worker (manager goroutine only)

	// adopted[s] is non-nil once shard s has been migrated into the
	// parent after its worker was abandoned (manager goroutine only).
	adopted  []*adoptedShard
	nAdopted int

	// closing is set by remoteShutdown: receivers stop re-arming read
	// timeouts and supervisors stop recovering.
	closing atomic.Bool

	// Recovery counters (written by supervisors and receivers, read by
	// results/metrics/introspection).
	reconnects      atomic.Int64
	replayedBatches atomic.Int64
	checkpoints     atomic.Int64
	checkpointBytes atomic.Int64
	abandoned       atomic.Int64
	migrated        atomic.Int64

	// Results folded back from the workers' FStats at shutdown.
	l2stats     []cache.L2Stats // per shard
	wireParent  remote.WireStats
	wireWorkers remote.WireStats
	statsOK     int // workers whose stats arrived

	// Fleet observability (remoteobs.go): worker trace chunks and
	// per-epoch clock-offset estimates collected by the receivers,
	// supervision incidents appended at lifecycle transitions, and the
	// once-per-worker trace-drop warning latch. All under obsMu — these
	// paths are off the per-event hot path (heartbeats, checkpoints,
	// supervision), so one mutex is cheap and keeps the export side
	// trivially safe.
	obsMu     sync.Mutex
	chunks    map[int]map[int]*remote.TraceChunk // worker -> epoch -> latest chunk
	clockOff  map[int]map[int]int64              // worker -> epoch -> parent-worker clock offset (ns)
	incidents []trace.Incident
	dropWarn  map[int]bool

	// wireTW is the parent's wire trace track: one KWireSend instant per
	// gate frame enqueued, carrying the flow id the worker's matching
	// KWireRecv echoes. Manager goroutine only (gates are enqueued there).
	wireTW *trace.Writer
}

func newRemoteState(cfg Config) *remoteState {
	r := &remoteState{n: cfg.RemoteShards}
	for s := 0; s < r.n; s++ {
		rings := make([]*event.Ring, cfg.NumCores)
		for c := range rings {
			rings[c] = event.NewRing(cfg.RingCap)
			rings[c].SetName(fmt.Sprintf("remote%d.c%d", s, c))
		}
		r.out = append(r.out, rings)
	}
	r.stage = make([][]event.Event, r.n)
	r.adopted = make([]*adoptedShard, r.n)
	r.l2stats = make([]cache.L2Stats, r.n)
	r.chunks = make(map[int]map[int]*remote.TraceChunk)
	r.clockOff = make(map[int]map[int]int64)
	r.dropWarn = make(map[int]bool)
	return r
}

// adoptedShard is one shard migrated into the parent after its worker
// was abandoned: the same timing state a worker would hold, restored
// from the last checkpoint, processed by the manager through the shared
// applyMemEvent path.
type adoptedShard struct {
	idx int
	l2  *cache.L2System
	gq  event.Heap
	// skip suppresses the first replies regenerated by the replay —
	// the ones the dead worker already delivered into the rings.
	skip int64
}

// wireMsg is one unit of outbound work: a journal entry until it is
// acknowledged by a checkpoint, and the send queue the sender drains.
type wireMsg struct {
	kind  byte // remote.FEvents, FGate, FCheckpointAck, FHeartbeat, FFinish
	shard int
	evs   []event.Event
	gate  int64
	batch int64 // global batch index (FEvents entries only)
}

// remoteWorker is the parent's handle on one worker process, across
// every connection incarnation it goes through.
type remoteWorker struct {
	id     int
	shards []int

	// mu guards the connection handle, the journal, and the cursor —
	// shared between the manager (appends), the sender (drains), the
	// receiver (truncates on checkpoint), and the supervisor (swaps the
	// connection on recovery).
	mu   sync.Mutex
	conn *remote.Conn

	// journal holds every unacknowledged outbound frame, oldest first.
	// jBase is the global index of journal[0]; cursor is the global
	// index of the next entry the sender transmits; batchSeq numbers
	// FEvents entries; maxGateEver is the highest gate ever enqueued
	// (re-sent after a resume so a truncated trailing gate cannot strand
	// the watermark).
	journal     []wireMsg
	jBase       int64
	cursor      int64
	batchSeq    int64
	maxGateEver int64

	// ckpt is the last checkpoint payload received from the worker,
	// stored verbatim (the parent only parses the header); the journal
	// is truncated to it.
	ckpt        []byte
	ckptGate    int64
	ckptBatches int64

	// delivered[p] counts replies for shards[p] pushed into the rings
	// since the last checkpoint truncation — the suppression count a
	// replay needs. Written only by the live receiver goroutine (or the
	// manager at adoption); handed between generations by the join in
	// the supervisor.
	delivered []int64

	// Per-connection channels, replaced by the supervisor on recovery
	// (under mu; each generation's goroutines capture their own).
	stopSend chan struct{}
	sendDone chan struct{}
	recvDone chan struct{}

	// Whole-lifetime channels.
	wakeSend chan struct{} // cap 1: journal append signal
	markCh   chan struct{} // cap 1: watermark / abandonment signal
	dying    chan struct{} // closed by remoteShutdown
	supDone  chan struct{} // supervisor goroutine joined

	// mark is the worker's last acknowledged gate (receiver writes,
	// manager spins on it in waitRemoteWatermarks). It survives
	// reconnects — a watermark only ever rises.
	mark padded
	// enqueued counts journal appends (the supervisor's keepalive check).
	enqueued atomic.Int64
	// adoptedFlag marks a worker whose shards migrated in-process
	// (manager goroutine only; supervision is already parked by then).
	adoptedFlag bool

	lastHeard atomic.Int64 // unix nanos of the last received frame
	hbStall   atomic.Bool  // faultinject.HeartbeatStall: stop counting frames as liveness
	finished  atomic.Bool  // receiver saw FBye (clean end of session)
	epoch     atomic.Int64 // connection incarnation (0 = original)

	sup *remote.Supervisor

	// wireAgg accumulates the connection counters of every dead
	// incarnation (supervisor goroutine; read after supDone).
	wireAgg  remote.WireStats
	stats    remote.WorkerStats
	gotStats bool // receiver writes before closing recvDone
}

func (w *remoteWorker) faultTarget() int { return faultinject.ShardWorker(w.shards[0]) }

func (w *remoteWorker) name() string { return fmt.Sprintf("worker %d (shards %v)", w.id, w.shards) }

// shardPos maps a global shard index to its position in w.shards.
func (w *remoteWorker) shardPos(shard int) int {
	for p, s := range w.shards {
		if s == shard {
			return p
		}
	}
	return -1
}

// currentConn snapshots the live connection handle (wire-fault hooks).
func (w *remoteWorker) currentConn() *remote.Conn {
	w.mu.Lock()
	c := w.conn
	w.mu.Unlock()
	return c
}

// enqueue appends one frame to the worker's journal and wakes the
// sender. Safe from the manager and the receiver concurrently.
func (w *remoteWorker) enqueue(msg wireMsg) {
	w.mu.Lock()
	if msg.kind == remote.FEvents {
		msg.batch = w.batchSeq
		w.batchSeq++
	}
	if msg.kind == remote.FGate && msg.gate > w.maxGateEver {
		w.maxGateEver = msg.gate
	}
	w.journal = append(w.journal, msg)
	w.mu.Unlock()
	w.enqueued.Add(1)
	select {
	case w.wakeSend <- struct{}{}:
	default:
	}
}

// remoteShardOf routes addr to its owning shard — the same bank-mod rule
// as the in-process driver, computed against the parent's own L2
// instance (bank geometry is pure configuration).
func (m *Machine) remoteShardOf(addr uint64) int {
	return m.l2.BankOf(addr) % m.remote.n
}

// remoteHandshakeTimeout bounds how long the parent waits for a worker's
// Welcome; a worker that never completes the handshake fails the run with
// a contained SimError instead of stalling it for the full watchdog
// window.
func (m *Machine) remoteHandshakeTimeout() time.Duration {
	t := m.stallTimeout()
	if t > 30*time.Second {
		t = 30 * time.Second
	}
	return t
}

// RunRemoteSharded executes the simulation with the memory-hierarchy
// shards hosted by remote worker processes, one per transport (TCP
// connections to slackworker processes, or any other Transport). The
// machine must have been built with Config.RemoteShards > 0; shards are
// distributed round-robin over the transports. The round structure,
// pacing, and determinism guarantees mirror the in-process sharded
// driver: a remote run is bit-exact against ManagerShards =
// RemoteShards for every conservative scheme — including runs that
// lose and recover workers (see RunRemoteShardedOpts for the recovery
// hooks; with no Redial hook a dead worker's shards migrate in-process).
func (m *Machine) RunRemoteSharded(s Scheme, transports []remote.Transport) (*Result, error) {
	return m.RunRemoteShardedOpts(s, &RemoteOptions{Transports: transports})
}

// RunRemoteShardedOpts is RunRemoteSharded with recovery configuration.
func (m *Machine) RunRemoteShardedOpts(s Scheme, opts *RemoteOptions) (*Result, error) {
	if m.remote == nil {
		return nil, fmt.Errorf("core: RunRemoteSharded requires Config.RemoteShards > 0")
	}
	if opts == nil {
		return nil, fmt.Errorf("core: RunRemoteShardedOpts requires options")
	}
	if len(opts.Transports) < 1 || len(opts.Transports) > m.remote.n {
		return nil, fmt.Errorf("core: %d worker connections for %d shards (need 1..%d)", len(opts.Transports), m.remote.n, m.remote.n)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	p := m.beginRun(s, runtime.GOMAXPROCS(0))

	m.remote.opts = opts
	if err := m.remoteConnect(opts.Transports); err != nil {
		return nil, err
	}

	// Same containment umbrella as RunParallel: cores, the per-connection
	// send/recv goroutines, the supervisors, and the manager all convert
	// panics into a recorded SimError and a clean join.
	var wg sync.WaitGroup
	m.spawnGroups(&wg, 0, nil)
	func() {
		defer m.containPanic(faultinject.Manager, "manager")
		m.runManager(p, m.remoteBackend())
	}()
	m.wakeAll()
	wg.Wait()
	m.remoteShutdown()
	// Straggler events (pushed after done) are finalized locally against
	// the parent's own hierarchy instance, exactly as the in-process
	// sharded driver does.
	res, err := m.finishRun(start)
	// A run that finished bit-exact but lost a worker for good is still a
	// post-mortem: the fleet shrank, and whoever operates it wants the
	// merged trace and incident log. Capture a bundle on the success path
	// too when any worker was abandoned.
	if err == nil && m.bundleDir != "" && m.remote.abandoned.Load() > 0 {
		m.writeFailureBundle(fmt.Errorf(
			"remote: run completed with %d abandoned worker(s), %d shard(s) migrated in-process",
			m.remote.abandoned.Load(), m.remote.migrated.Load()))
	}
	return res, err
}

// remoteConnect performs the versioned handshake with every worker and
// spawns its send/recv/supervisor goroutines. Any failure — refusal,
// version mismatch, silence past the deadline — closes every connection
// and returns a SimError naming the worker: the initial handshake is
// where configuration mistakes surface, so it stays fatal rather than
// entering the recovery path.
func (m *Machine) remoteConnect(transports []remote.Transport) error {
	r := m.remote
	r.session = fmt.Sprintf("slacksim-%d-%d", os.Getpid(), time.Now().UnixNano())
	nw := len(transports)
	r.owner = make([]int, r.n)
	r.workers = make([]*remoteWorker, nw)
	for wi := 0; wi < nw; wi++ {
		w := &remoteWorker{
			id:       wi,
			conn:     remote.NewConn(transports[wi]),
			stopSend: make(chan struct{}),
			sendDone: make(chan struct{}),
			recvDone: make(chan struct{}),
			wakeSend: make(chan struct{}, 1),
			markCh:   make(chan struct{}, 1),
			dying:    make(chan struct{}),
			supDone:  make(chan struct{}),
			sup:      remote.NewSupervisor(r.opts.retryBudget(), r.opts.RetryBackoff),
		}
		for sh := wi; sh < r.n; sh += nw {
			w.shards = append(w.shards, sh)
			r.owner[sh] = wi
		}
		w.delivered = make([]int64, len(w.shards))
		// The synthetic gate-0 checkpoint makes the recovery path uniform:
		// a worker lost before its first real checkpoint restores fresh
		// state and replays the whole journal.
		ck := remote.Checkpoint{WorkerID: w.id}
		for _, sh := range w.shards {
			ck.Shards = append(ck.Shards, remote.ShardCheckpoint{Shard: sh})
		}
		w.ckpt = remote.AppendCheckpoint(nil, &ck)
		r.workers[wi] = w
	}
	deadline := time.Now().Add(m.remoteHandshakeTimeout())
	for _, w := range r.workers {
		// The write deadline covers a peer that never reads (SendHello
		// flushes); cleared after the handshake — the sender goroutine
		// re-arms its own per frame.
		w.conn.SetWriteDeadline(deadline)
		err := w.conn.SendHello(m.remoteHello(w, false))
		if err == nil {
			_, err = w.conn.AwaitWelcome(deadline)
		}
		w.conn.SetWriteDeadline(time.Time{})
		if err != nil {
			for _, o := range r.workers {
				o.conn.Close()
			}
			return &SimError{
				Core:   w.faultTarget(),
				Op:     "remote-handshake",
				Scheme: m.scheme,
				Detail: fmt.Sprintf("%s: %v", w.name(), err),
			}
		}
	}
	for _, w := range r.workers {
		w.lastHeard.Store(time.Now().UnixNano())
		m.spawnConnGoroutines(w, w.conn, w.stopSend, w.sendDone, w.recvDone, make([]int64, len(w.shards)))
		w := w
		go func() {
			defer close(w.supDone)
			defer m.containPanic(w.faultTarget(), "remote-supervise")
			m.superviseWorker(w)
		}()
	}
	return nil
}

// remoteHello builds the handshake frame for a worker session (initial
// or resumed).
func (m *Machine) remoteHello(w *remoteWorker, resume bool) *remote.Hello {
	return &remote.Hello{
		WorkerID:        w.id,
		Shards:          w.shards,
		NumShards:       m.remote.n,
		NumCores:        m.cfg.NumCores,
		Cache:           m.cfg.Cache,
		StallTimeoutMS:  m.stallTimeout().Milliseconds(),
		HeartbeatMS:     m.remote.opts.heartbeatMS(),
		CheckpointEvery: m.remote.opts.checkpointEvery(),
		SessionID:       m.remote.session,
		ResumeSession:   resume,
		Epoch:           int(w.epoch.Load()),
		// Fleet observability rides on the parent's own: a worker only
		// pays for trace rings and a registry when the parent has somewhere
		// to merge them, which keeps the disabled-overhead budget intact.
		Observe: m.tracer != nil || m.met != nil,
	}
}

// processAdoptedShards pops every adopted shard's queued events below
// bound through the shared timing path — the in-process continuation of
// the dead worker's processAndReply, reply-order identical. Must run
// inside the manager's notify batch.
func (m *Machine) processAdoptedShards(bound int64) bool {
	r := m.remote
	if r.nAdopted == 0 {
		return false
	}
	processed := false
	for sh, as := range r.adopted {
		if as == nil {
			continue
		}
		n := processShardBelow(&as.gq, as.l2, bound, func(core int, out event.Event) {
			if as.skip > 0 {
				as.skip--
				return
			}
			out.Core = int32(core)
			r.out[sh][core].MustPush(out)
			m.deferNotify(core)
		})
		if n > 0 {
			m.evShard.Add(n)
			processed = true
		}
	}
	return processed
}

// remoteBackend returns the remote manager backend. It mirrors the sharded
// one; only the shard transport differs (wire instead of shared-memory
// rings), plus the recovery hooks a wire needs. Certain-deadlock detection
// is off: events and replies in flight on the wire are invisible to the
// queue emptiness check, so a kernel-deadlock verdict could be premature.
// The stall watchdog and the watermark deadline carry the liveness
// guarantee instead.
func (m *Machine) remoteBackend() mgrBackend {
	m.remote.book = m.newGateBook(len(m.remote.workers))
	fiWire := newInjected(m.fiWire)
	stage := m.stageForWire
	return mgrBackend{
		drain: func(g int64) bool {
			m.applyWireFaults(fiWire, g)
			m.adoptAbandonedWorkers()
			moved := m.drainDirty(stage)
			m.flushStage()
			return moved
		},
		gate: m.remoteGate,
	}
}

// stageForWire sends one core request to its processor: system calls to
// the manager's GQ, memory traffic to its shard's staging buffer (flushed
// to the wire at the end of the drain).
func (m *Machine) stageForWire(ev event.Event) {
	if ev.Kind == event.KSyscall {
		m.gq.Push(ev)
		return
	}
	sh := m.remoteShardOf(ev.Addr)
	m.remote.stage[sh] = append(m.remote.stage[sh], ev)
}

// flushStage journals each shard's staged batch for its worker's sender,
// noting its events in the worker's gate book — or, for a shard already
// migrated in-process, pushes it straight into its local heap. The journal
// keeps a batch until a checkpoint covers it, so it gets a copy of its own
// and the stage buffers are reused.
func (m *Machine) flushStage() {
	r := m.remote
	for sh, evs := range r.stage {
		if len(evs) == 0 {
			continue
		}
		r.stage[sh] = evs[:0]
		if as := r.adopted[sh]; as != nil {
			for i := range evs {
				as.gq.Push(evs[i])
			}
			continue
		}
		wk := r.owner[sh]
		for i := range evs {
			r.book.note(wk, evs[i].Time)
		}
		r.workers[wk].enqueue(wireMsg{kind: remote.FEvents, shard: sh, evs: slices.Clone(evs)})
	}
}

// remoteGate lets every live worker holding an event below allowed process
// through it, waits for the watermarks of the gates raised, and processes
// the adopted shards in-process. The round's batches went out in the drain,
// before this gate — in-order delivery then gives the worker every event
// below allowed before it sees the gate, which is the shared-memory
// driver's push-then-raise order. Under an optimistic scheme allowed is
// unbounded from the first round on, so each worker gets exactly one gate
// and answers on arrival after it.
func (m *Machine) remoteGate(allowed int64) bool {
	r := m.remote
	for _, w := range r.workers {
		if !w.adoptedFlag && r.book.raise(w.id, allowed) {
			w.enqueue(wireMsg{kind: remote.FGate, gate: allowed})
			// Flow-event anchor: the worker's FGate receive records a
			// KWireRecv with the identical flow id, and the merge pairs
			// them into an s/f arrow across the processes.
			r.wireTW.Instant(trace.KWireSend, trace.WireFlowID(w.id, allowed))
		}
	}
	m.waitRemoteWatermarks()
	return m.processAdoptedShards(allowed)
}

// waitRemoteWatermarks blocks until every live worker has acknowledged
// processing through the last gate raised on it — the wire form of
// raiseShardGates' wait. The total wait is bounded by twice the stall
// timeout: one stall window for an undisturbed worker, and another for the
// supervisor's recovery to complete behind it. A worker abandoned mid-wait
// has its shards migrated here, after which the wait no longer applies to
// it.
func (m *Machine) waitRemoteWatermarks() {
	var expired <-chan time.Time
	var due time.Time
	for _, w := range m.remote.workers {
		if w.adoptedFlag {
			continue
		}
		gate := m.remote.book.procs[w.id].gate
		for w.mark.v.Load() < gate && !m.done.Load() {
			if w.sup.State() == remote.SupAbandoned {
				m.adoptWorker(w)
				break
			}
			if expired == nil {
				due = time.Now().Add(2 * m.stallTimeout())
				expired = m.armMgrTimer(time.Until(due))
			}
			select {
			case <-w.markCh:
				// Re-check the mark (or notice an abandonment); stale
				// wakeups are harmless.
			case <-expired:
				if wait := time.Until(due); wait > 0 {
					// A stale tick left by the timer's previous use.
					expired = m.armMgrTimer(wait)
					continue
				}
				m.setFault(&SimError{
					Core:   w.faultTarget(),
					Op:     "remote-watermark",
					Scheme: m.scheme, GlobalTime: m.global.Load(), SimTime: gate,
					Detail: fmt.Sprintf("%s: no watermark for gate %d within %v (last %d, supervisor %v, %d reconnects)",
						w.name(), gate, 2*m.stallTimeout(), w.mark.v.Load(), w.sup.State(), w.sup.Reconnects()),
				})
				return
			}
		}
	}
	if expired != nil {
		m.disarmMgrTimer()
	}
}

// applyWireFaults fires due wire-level chaos faults against the global
// time: each targets the connection of the worker owning the named
// shard. The injection itself is benign bookkeeping — everything
// interesting happens in the recovery machinery it provokes.
func (m *Machine) applyWireFaults(inj *injected, clock int64) {
	if inj == nil {
		return
	}
	r := m.remote
	for idx := range inj.faults {
		f := &inj.faults[idx]
		if inj.fired[idx] || clock < f.At {
			continue
		}
		inj.fired[idx] = true
		s, ok := faultinject.IsShard(f.Core)
		if !ok || s >= r.n {
			continue
		}
		w := r.workers[r.owner[s]]
		switch f.Kind {
		case faultinject.ConnDrop:
			w.currentConn().Close()
		case faultinject.HeartbeatStall:
			w.hbStall.Store(true)
		case faultinject.FrameCorrupt:
			w.currentConn().InjectRecvCorrupt()
		case faultinject.WorkerKill:
			if r.opts.Kill != nil {
				r.opts.Kill(w.id) //nolint:errcheck // dead-already is fine
			} else {
				w.currentConn().Close()
			}
		}
	}
}

// remoteShutdown winds the wire down after the run: finish every live
// worker, let its supervisor reel in the connection (collecting stats on
// the way), and fold everything into the result. Called after the core
// goroutines have joined, on both the clean and the faulted path.
func (m *Machine) remoteShutdown() {
	r := m.remote
	if r.workers == nil {
		return
	}
	r.closing.Store(true)
	for _, w := range r.workers {
		if !w.adoptedFlag && w.sup.State() != remote.SupAbandoned {
			w.enqueue(wireMsg{kind: remote.FFinish})
		}
		close(w.dying)
	}
	for _, w := range r.workers {
		<-w.supDone
	}
	for _, w := range r.workers {
		r.wireParent.Add(w.wireAgg)
		if !w.gotStats {
			continue
		}
		r.statsOK++
		r.wireWorkers.Add(w.stats.Wire)
		m.evShard.Add(w.stats.Events)
		for _, sl := range w.stats.L2 {
			if sl.Shard >= 0 && sl.Shard < r.n {
				r.l2stats[sl.Shard] = sl.Stats
			}
		}
		// Federation: the worker's final registry snapshot lands under
		// its "worker<i>." prefix, and its ring-drop counts become
		// counters plus the once-per-worker stderr warning.
		if m.met != nil && w.stats.Metrics != nil {
			m.met.reg.Fold(fmt.Sprintf("worker%d.", w.id), *w.stats.Metrics)
		}
		m.warnWorkerDropped(w, w.stats.TraceDropped)
	}
	for sh, as := range r.adopted {
		if as != nil {
			r.l2stats[sh] = as.l2.Stats
		}
	}
}

// RemoteWireStats is the Result's wire-traffic section for a remote run:
// the parent's connection counters and the sum of the workers' (as
// reported in their FStats frames).
type RemoteWireStats struct {
	Parent  remote.WireStats `json:"parent"`
	Workers remote.WireStats `json:"workers"`
}

// remoteWire returns the run's wire stats (nil for non-remote runs).
func (m *Machine) remoteWire() *RemoteWireStats {
	if m.remote == nil || m.remote.workers == nil {
		return nil
	}
	return &RemoteWireStats{Parent: m.remote.wireParent, Workers: m.remote.wireWorkers}
}

// remoteRecovery returns the run's recovery stats (nil for non-remote
// runs). Safe from any goroutine — atomics only.
func (m *Machine) remoteRecovery() *RecoveryStats {
	if m.remote == nil || m.remote.workers == nil {
		return nil
	}
	r := m.remote
	return &RecoveryStats{
		Reconnects:       r.reconnects.Load(),
		ReplayedBatches:  r.replayedBatches.Load(),
		Checkpoints:      r.checkpoints.Load(),
		CheckpointBytes:  r.checkpointBytes.Load(),
		AbandonedWorkers: r.abandoned.Load(),
		MigratedShards:   r.migrated.Load(),
	}
}

// RemoteWorkerReport is one worker's supervision state inside a
// StallReport or introspection snapshot.
type RemoteWorkerReport struct {
	ID         int    `json:"id"`
	State      string `json:"state"`
	Shards     []int  `json:"shards"`
	Mark       int64  `json:"mark"`
	Reconnects int64  `json:"reconnects"`
	Epoch      int64  `json:"epoch"`
}

// remoteWorkerReports snapshots every worker's supervision state from
// atomics only — safe from any goroutine, shared by the forensic
// snapshot and the introspection server.
func (m *Machine) remoteWorkerReports() []RemoteWorkerReport {
	if m.remote == nil || m.remote.workers == nil {
		return nil
	}
	out := make([]RemoteWorkerReport, 0, len(m.remote.workers))
	for _, w := range m.remote.workers {
		out = append(out, RemoteWorkerReport{
			ID:         w.id,
			State:      w.sup.State().String(),
			Shards:     w.shards,
			Mark:       w.mark.v.Load(),
			Reconnects: w.sup.Reconnects(),
			Epoch:      w.epoch.Load(),
		})
	}
	return out
}

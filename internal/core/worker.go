package core

import (
	"encoding/json"
	"fmt"
	"net"
	"runtime/debug"
	"sync"
	"time"

	"slacksim/internal/cache"
	"slacksim/internal/event"
	"slacksim/internal/faultinject"
	"slacksim/internal/metrics"
	"slacksim/internal/remote"
	"slacksim/internal/trace"
)

// This file is the worker side of the distributed remote-shard backend:
// the loop a slackworker process (or a slacksim -remote-spawn session)
// runs per connection. It is deliberately in package core, not
// internal/remote — the whole point is that a worker's timing path is
// the in-process shard worker's, applied through the same applyMemEvent
// used by every other driver, so the two backends cannot drift apart.

// remoteShard is one shard's state inside a worker: its own timing-only
// L2/directory instance and its pending-event heap, mirroring the
// in-process shardWorker's per-goroutine state.
type remoteShard struct {
	idx     int
	l2      *cache.L2System
	gq      event.Heap
	replies []event.Event
}

// ServeRemoteShards runs one worker session over t: handshake, then the
// event/gate/reply/watermark loop, until the parent's FFinish (answered
// with FStats) or a fatal error. A panic anywhere in the loop — a cache
// model bug on hostile input, most likely — is serialized as an FError
// frame carrying the same JSON SimError shape the in-process containment
// produces, so the parent's forensics are identical either way. The
// returned error describes why the session ended when it did not end
// with a clean FFinish exchange.
func ServeRemoteShards(t remote.Transport) error {
	return serveRemoteShards(t, nil)
}

// ServeRemoteListener serves one ServeRemoteShards session per connection
// accepted on ln until ln closes, then waits for every in-flight session
// to finish — a drain, not an abandonment, so a worker asked to stop
// mid-run still answers its parent's final frames. It returns the error
// that ended the accept loop. logf, which may be nil, receives the
// sessions' log lines (handshakes, resumes) and one line per session end;
// sessions run concurrently, so it must be safe for concurrent use.
func ServeRemoteListener(ln net.Listener, logf func(format string, args ...any)) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		c, err := ln.Accept()
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			addr, start := c.RemoteAddr(), time.Now()
			err := serveRemoteShards(c, logf)
			if logf == nil {
				return
			}
			if err != nil {
				logf("session %s: %v", addr, err)
			} else {
				logf("session %s: done (%v)", addr, time.Since(start).Round(time.Millisecond))
			}
		}()
	}
}

func serveRemoteShards(t remote.Transport, logf func(format string, args ...any)) error {
	c := remote.NewConn(t)
	hello, err := c.AcceptHello(time.Now().Add(30 * time.Second))
	if err != nil {
		c.Close()
		return err
	}
	w := &remoteWorkerLoop{conn: c, hello: hello, logf: logf}
	if hello.Observe {
		w.enableObservability()
	}
	for _, idx := range hello.Shards {
		l2, lerr := cache.NewL2System(hello.Cache)
		if lerr != nil {
			detail := fmt.Sprintf("worker %d: bad cache config: %v", hello.WorkerID, lerr)
			w.sendError(&SimError{
				Core: faultinject.ShardWorker(idx), Op: "remote-worker", Detail: detail,
			})
			c.Close()
			return fmt.Errorf("core: %s", detail)
		}
		w.shards = append(w.shards, &remoteShard{idx: idx, l2: l2})
	}
	if hello.ResumeSession {
		if err := w.restoreFromParent(); err != nil {
			c.Close()
			return err
		}
	}
	err = w.serve()
	c.Close()
	return err
}

// remoteWorkerLoop is one session's state.
type remoteWorkerLoop struct {
	conn    *remote.Conn
	hello   *remote.Hello
	shards  []*remoteShard
	gate    int64
	gates   int64 // FGate frames processed this session (checkpoint cadence)
	batches int64 // FEvents frames consumed since the session started
	events  int64
	logf    func(format string, args ...any)
	// scratch is the decode buffer reused across FEvents frames; ckptBuf
	// the checkpoint encode buffer reused across FCheckpoint frames.
	scratch []event.Event
	ckptBuf []byte

	// Worker-side observability (all nil unless the Hello set Observe):
	// the worker's own trace collector and metrics registry, shipped back
	// over the wire for fleet-wide correlation (see internal/trace/merge
	// and the parent's fold in remote.go).
	tracer  *trace.Collector
	wireTW  *trace.Writer      // wire receive/flow track
	procTW  *trace.Writer      // processing-pass track
	reg     *metrics.Registry  // worker registry (federated)
	metHB   *metrics.Counter   // worker.heartbeats
	metCkpt *metrics.Counter   // worker.checkpoints
	metGate *metrics.Counter   // worker.gates
	metBat  *metrics.Counter   // worker.batches
	metEv   *metrics.Counter   // worker.events
	batchH  *metrics.Histogram // worker.batch.events
	lastObs time.Time          // last periodic trace/metrics ship (throttle)
}

// workerTraceCapacity keeps per-writer worker rings small enough that a
// JSON trace chunk (sent with every checkpoint) stays well under the
// frame ceiling.
const workerTraceCapacity = 1 << 12

// obsMinInterval throttles the periodic trace/metrics frames that ride
// behind checkpoints. Each snapshot supersedes its predecessor on the
// parent, so shipping one per checkpoint under a tight CheckpointEvery
// is pure wire overhead — a full ring snapshot costs a JSON encode, a
// synchronous wire transfer, and a decode, which must stay a small
// fraction of the interval or the sim ends up feeding its own
// instrumentation. One second bounds the trace/metrics staleness a
// worker crash can leave behind; the unconditional pre-FStats chunk
// still guarantees the merged views are complete at session end.
const obsMinInterval = time.Second

// enableObservability builds the worker's collector and registry (the
// parent asked via Hello.Observe).
func (w *remoteWorkerLoop) enableObservability() {
	w.tracer = trace.NewWithCapacity(workerTraceCapacity)
	w.wireTW = w.tracer.Writer("wire", 0)
	w.procTW = w.tracer.Writer(fmt.Sprintf("worker %d shards", w.hello.WorkerID), 1)
	w.reg = metrics.NewRegistry()
	w.metHB = w.reg.Counter("worker.heartbeats")
	w.metCkpt = w.reg.Counter("worker.checkpoints")
	w.metGate = w.reg.Counter("worker.gates")
	w.metBat = w.reg.Counter("worker.batches")
	w.metEv = w.reg.Counter("worker.events")
	w.batchH = w.reg.Histogram("worker.batch.events")
}

// publishShardStats refreshes the per-shard hierarchy gauges in the
// worker registry (cheap: a handful of gauge stores per shard).
func (w *remoteWorkerLoop) publishShardStats() {
	if w.reg == nil {
		return
	}
	for _, sh := range w.shards {
		cache.PublishL2StatsPrefix(w.reg, fmt.Sprintf("shard%d.", sh.idx), sh.l2.Stats)
	}
}

// heartbeatPayload is the worker's clock sample (empty when unobserved);
// the parent estimates the trace-clock offset from it.
func (w *remoteWorkerLoop) heartbeatPayload() []byte {
	if w.tracer == nil {
		return nil
	}
	return remote.AppendClock(nil, w.tracer.Now())
}

// sendTraceChunk ships the current ring snapshot; each chunk supersedes
// the previous one parent-side, so periodic sends cost no duplication.
func (w *remoteWorkerLoop) sendTraceChunk() error {
	if w.tracer == nil {
		return nil
	}
	ch := remote.TraceChunk{
		SessionID: w.hello.SessionID,
		WorkerID:  w.hello.WorkerID,
		Epoch:     w.hello.Epoch,
		ClockNS:   w.tracer.Now(),
		Writers:   w.tracer.Chunk(),
	}
	body, err := json.Marshal(&ch)
	if err != nil {
		return err
	}
	return w.conn.WriteFrame(remote.FTraceChunk, body)
}

// sendMetricsUpdate ships a live registry snapshot for federation.
func (w *remoteWorkerLoop) sendMetricsUpdate() error {
	if w.reg == nil {
		return nil
	}
	w.publishShardStats()
	up := remote.MetricsUpdate{
		WorkerID: w.hello.WorkerID,
		Epoch:    w.hello.Epoch,
		Snapshot: w.reg.Snapshot(),
	}
	body, err := json.Marshal(&up)
	if err != nil {
		return err
	}
	return w.conn.WriteFrame(remote.FMetrics, body)
}

func (w *remoteWorkerLoop) logln(format string, args ...any) {
	if w.logf != nil {
		w.logf(format, args...)
	}
}

// heartbeat returns the interval after which an idle worker volunteers
// an FHeartbeat frame so the parent's staleness detector can tell a
// slow round from a hung or dead worker; 0 disables heartbeats.
func (w *remoteWorkerLoop) heartbeat() time.Duration {
	ms := w.hello.HeartbeatMS
	if ms < 0 {
		return 0
	}
	if ms == 0 {
		return time.Second
	}
	return time.Duration(ms) * time.Millisecond
}

// restoreFromParent rebuilds a resumed session: the parent follows a
// ResumeSession hello with the checkpoint it stored from this worker's
// previous incarnation (or a synthetic fresh one for gate 0), and the
// worker restores every shard's timing state and pending heap from it
// before acking. The parent then replays its journal of post-checkpoint
// batches, which regenerates the exact reply stream the lost connection
// swallowed.
func (w *remoteWorkerLoop) restoreFromParent() error {
	w.conn.SetReadDeadline(time.Now().Add(w.readTimeout()))
	f, err := w.conn.ReadFrame()
	if err != nil {
		return fmt.Errorf("core: remote worker %d: awaiting resume checkpoint: %w", w.hello.WorkerID, err)
	}
	if f.Type != remote.FCheckpoint {
		return fmt.Errorf("core: remote worker %d: %s frame while awaiting resume checkpoint", w.hello.WorkerID, remote.FrameName(f.Type))
	}
	ck, err := remote.DecodeCheckpoint(f.Payload)
	if err != nil {
		return fmt.Errorf("core: remote worker %d: %w", w.hello.WorkerID, err)
	}
	if ck.WorkerID != w.hello.WorkerID {
		return fmt.Errorf("core: remote worker %d: resume checkpoint belongs to worker %d", w.hello.WorkerID, ck.WorkerID)
	}
	if len(ck.Shards) != len(w.shards) {
		return fmt.Errorf("core: remote worker %d: resume checkpoint has %d shards, want %d", w.hello.WorkerID, len(ck.Shards), len(w.shards))
	}
	for i := range ck.Shards {
		cs := &ck.Shards[i]
		sh := w.shardByIndex(cs.Shard)
		if sh == nil {
			return fmt.Errorf("core: remote worker %d: resume checkpoint covers foreign shard %d", w.hello.WorkerID, cs.Shard)
		}
		if len(cs.L2) > 0 {
			if err := sh.l2.RestoreState(cs.L2); err != nil {
				return fmt.Errorf("core: remote worker %d shard %d: %w", w.hello.WorkerID, cs.Shard, err)
			}
		}
		for _, ev := range cs.Pending {
			sh.gq.Push(ev)
		}
	}
	w.gate, w.batches, w.events = ck.Gate, ck.Batches, ck.Events
	if err := w.conn.SendTime(remote.FCheckpointAck, ck.Gate); err != nil {
		return err
	}
	if err := w.conn.Flush(); err != nil {
		return err
	}
	w.logln("session resumed: worker %d epoch %d at gate %d (%d batches, %d events replayed into state)",
		w.hello.WorkerID, w.hello.Epoch, ck.Gate, ck.Batches, ck.Events)
	return nil
}

// readTimeout is the worker's orphan detector: the parent sends a
// heartbeat at least every stall timeout in which it has nothing else for
// this worker and keeps the connection open for the whole run, so total
// silence for twice that means the parent is gone and the worker should
// exit rather than linger.
func (w *remoteWorkerLoop) readTimeout() time.Duration {
	t := time.Duration(w.hello.StallTimeoutMS) * time.Millisecond
	if t <= 0 {
		t = 60 * time.Second
	}
	return 2 * t
}

func (w *remoteWorkerLoop) serve() (err error) {
	defer func() {
		if r := recover(); r != nil {
			// Cross-process crash forensics: the same SimError shape the
			// in-process containPanic records, shipped over the wire.
			se := &SimError{
				Core:    faultinject.ShardWorker(w.hello.Shards[0]),
				Op:      "remote-worker",
				Detail:  fmt.Sprint(r),
				SimTime: w.gate, GlobalTime: w.gate,
				Stack: string(debug.Stack()),
			}
			w.sendError(se)
			err = fmt.Errorf("core: remote worker %d panicked: %v", w.hello.WorkerID, r)
		}
	}()
	// The read deadline is sliced at the heartbeat interval: each expiry
	// with no inbound frame sends one FHeartbeat so the parent can tell
	// "slow round" from "hung worker", and total silence past the orphan
	// timeout still exits the process.
	lastFrame := time.Now()
	for {
		slice := w.readTimeout()
		if hb := w.heartbeat(); hb > 0 && hb < slice {
			slice = hb
		}
		w.conn.SetReadDeadline(time.Now().Add(slice))
		f, rerr := w.conn.ReadFrame()
		if rerr != nil {
			if remote.IsTimeout(rerr) {
				if time.Since(lastFrame) >= w.readTimeout() {
					return fmt.Errorf("core: remote worker %d: orphaned (no frame in %v)", w.hello.WorkerID, w.readTimeout())
				}
				if err := w.sendHeartbeat(); err != nil {
					return err
				}
				continue
			}
			return fmt.Errorf("core: remote worker %d: %w", w.hello.WorkerID, rerr)
		}
		lastFrame = time.Now()
		switch f.Type {
		case remote.FHeartbeat:
			// The parent's keepalive to a worker it has not gated lately:
			// answer it, because its frames keep this worker from ever
			// going read-idle, and the parent still needs to hear from it.
			if err := w.sendHeartbeat(); err != nil {
				return err
			}
		case remote.FCheckpointAck:
			// Checkpoint bookkeeping; nothing to do. (A stale ack after a
			// resume is harmless by design.)
		case remote.FEvents:
			w.batches++
			w.metBat.Inc()
			shard, evs, derr := w.conn.DecodeEvents(f.Payload, w.scratch[:0])
			if derr != nil {
				return fmt.Errorf("core: remote worker %d: %w", w.hello.WorkerID, derr)
			}
			w.batchH.Observe(int64(len(evs)))
			sh := w.shardByIndex(shard)
			if sh == nil {
				return fmt.Errorf("core: remote worker %d: batch for foreign shard %d", w.hello.WorkerID, shard)
			}
			for i := range evs {
				sh.gq.Push(evs[i])
			}
			w.scratch = evs[:0]
			// Optimistic schemes publish one unbounded gate up front and
			// then expect replies on arrival; under conservative pacing
			// the new events sit above the gate and this pass is a no-op.
			if w.gate > 0 {
				if err := w.processAndReply(); err != nil {
					return err
				}
				if err := w.conn.Flush(); err != nil {
					return err
				}
			}
		case remote.FGate:
			t, derr := remote.DecodeTime(f.Payload)
			if derr != nil {
				return fmt.Errorf("core: remote worker %d: %w", w.hello.WorkerID, derr)
			}
			if t > w.gate {
				w.gate = t
			}
			w.gates++
			w.metGate.Inc()
			// The receive half of the cross-process flow event: the parent
			// recorded KWireSend with the same flow id when it wrote this
			// gate, so the merged timeline draws an arrow across the wire.
			w.wireTW.Instant(trace.KWireRecv, trace.WireFlowID(w.hello.WorkerID, t))
			if err := w.processAndReply(); err != nil {
				return err
			}
			// The watermark is written after every reply batch on this
			// in-order stream: once the parent reads it, the replies are
			// already in its rings — the wire analog of the in-process
			// store-mark-after-push rule that the window raise relies on.
			if err := w.conn.SendTime(remote.FWatermark, t); err != nil {
				return err
			}
			// A checkpoint rides behind the watermark every K gates: the
			// parent sees it strictly after every reply the checkpointed
			// state accounts for, which is what lets it truncate the replay
			// journal and reset its delivered-reply counters atomically.
			if k := w.hello.CheckpointEvery; k > 0 && w.gates%int64(k) == 0 {
				if err := w.sendCheckpoint(); err != nil {
					return err
				}
				// Observability piggybacks on the checkpoint cadence — but
				// throttled: ring and registry snapshots replace, not append,
				// so at most one ships per obsMinInterval however tight the
				// checkpoint spacing is.
				if now := time.Now(); now.Sub(w.lastObs) >= obsMinInterval {
					w.lastObs = now
					if err := w.sendTraceChunk(); err != nil {
						return err
					}
					if err := w.sendMetricsUpdate(); err != nil {
						return err
					}
				}
			}
			if err := w.conn.Flush(); err != nil {
				return err
			}
		case remote.FFinish:
			return w.sendStats()
		default:
			return fmt.Errorf("core: remote worker %d: unexpected %s frame", w.hello.WorkerID, remote.FrameName(f.Type))
		}
	}
}

// sendHeartbeat ships one FHeartbeat, unless heartbeats are off.
func (w *remoteWorkerLoop) sendHeartbeat() error {
	if w.heartbeat() <= 0 {
		return nil
	}
	w.metHB.Inc()
	err := w.conn.WriteFrame(remote.FHeartbeat, w.heartbeatPayload())
	if err == nil {
		err = w.conn.Flush()
	}
	if err != nil {
		return fmt.Errorf("core: remote worker %d: heartbeat: %w", w.hello.WorkerID, err)
	}
	return nil
}

func (w *remoteWorkerLoop) shardByIndex(idx int) *remoteShard {
	for _, sh := range w.shards {
		if sh.idx == idx {
			return sh
		}
	}
	return nil
}

// processAndReply pops every queued event below the gate through the
// shared timing path and ships the accumulated replies, one batch per
// shard — in (timestamp, core, seq) order within each shard, exactly the
// order the in-process shard worker pushes its rings in.
func (w *remoteWorkerLoop) processAndReply() error {
	ps := w.procTW.Begin()
	before := w.events
	for _, sh := range w.shards {
		sh.replies = sh.replies[:0]
		w.events += processShardBelow(&sh.gq, sh.l2, w.gate, func(core int, out event.Event) {
			out.Core = int32(core)
			sh.replies = append(sh.replies, out)
		})
		if len(sh.replies) > 0 {
			if err := w.conn.SendBatch(remote.FReplies, sh.idx, sh.replies); err != nil {
				return err
			}
		}
	}
	if done := w.events - before; done > 0 {
		w.procTW.Span(trace.KProcess, ps, done)
		w.metEv.Add(done)
	}
	return nil
}

// sendCheckpoint serializes every shard's full timing state — L2 lines,
// resource clocks, stats, and the pending-event heap in pop order — into
// one FCheckpoint frame. The pending heap is exported destructively
// (successive pops) and rebuilt, which both yields the deterministic pop
// order the restore relies on and leaves the live heap untouched.
func (w *remoteWorkerLoop) sendCheckpoint() error {
	ck := remote.Checkpoint{
		WorkerID: w.hello.WorkerID,
		Gate:     w.gate,
		Batches:  w.batches,
		Events:   w.events,
	}
	for _, sh := range w.shards {
		sc := remote.ShardCheckpoint{Shard: sh.idx, L2: sh.l2.AppendState(nil)}
		if n := sh.gq.Len(); n > 0 {
			sc.Pending = make([]event.Event, 0, n)
			for sh.gq.Len() > 0 {
				sc.Pending = append(sc.Pending, sh.gq.Pop())
			}
			for _, ev := range sc.Pending {
				sh.gq.Push(ev)
			}
		}
		ck.Shards = append(ck.Shards, sc)
	}
	w.ckptBuf = remote.AppendCheckpoint(w.ckptBuf[:0], &ck)
	if err := w.conn.WriteFrame(remote.FCheckpoint, w.ckptBuf); err != nil {
		return err
	}
	w.metCkpt.Inc()
	return nil
}

// sendStats answers FFinish with the session's counters and says
// goodbye. When observing, the final trace chunk precedes the stats so
// the parent has the complete rings before it folds the run's results.
func (w *remoteWorkerLoop) sendStats() error {
	if err := w.sendTraceChunk(); err != nil {
		return err
	}
	st := remote.WorkerStats{
		WorkerID: w.hello.WorkerID,
		Events:   w.events,
		Wire:     w.conn.Stats(),
	}
	for _, sh := range w.shards {
		st.L2 = append(st.L2, remote.ShardL2{Shard: sh.idx, Stats: sh.l2.Stats})
	}
	if w.reg != nil {
		w.publishShardStats()
		snap := w.reg.Snapshot()
		st.Metrics = &snap
		st.ClockNS = w.tracer.Now()
		st.TraceDropped = make(map[string]int64)
		for _, tw := range w.tracer.Writers() {
			if d := tw.Dropped(); d > 0 {
				st.TraceDropped[tw.Name()] = d
			}
		}
	}
	body, err := json.Marshal(st)
	if err != nil {
		return err
	}
	if err := w.conn.WriteFrame(remote.FStats, body); err != nil {
		return err
	}
	if err := w.conn.WriteFrame(remote.FBye, nil); err != nil {
		return err
	}
	return w.conn.Flush()
}

// sendError best-effort-ships a SimError frame; the session is already
// dying, so a marshalling or write failure is only swallowed.
func (w *remoteWorkerLoop) sendError(se *SimError) {
	body, err := json.Marshal(se)
	if err != nil {
		return
	}
	w.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if w.conn.WriteFrame(remote.FError, body) == nil {
		w.conn.Flush()
	}
}

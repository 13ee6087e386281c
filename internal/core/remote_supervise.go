package core

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"slacksim/internal/cache"
	"slacksim/internal/event"
	"slacksim/internal/remote"
)

// This file is the supervision half of the remote-shard parent (remote.go
// holds the driver, routing and manager backend): each connection
// incarnation's sender and receiver, the per-worker supervisor with its
// redial/resume loop, shard adoption after an abandonment, and the
// checkpoint store that truncates the replay journal.

// spawnConnGoroutines starts one connection incarnation's sender and
// receiver. skip is the receiver's per-shard count of replies to
// suppress (the ones the previous incarnation already delivered).
func (m *Machine) spawnConnGoroutines(w *remoteWorker, conn *remote.Conn, stopSend, sendDone, recvDone chan struct{}, skip []int64) {
	go func() {
		defer close(sendDone)
		defer m.containPanic(w.faultTarget(), "remote-send")
		m.remoteSender(w, conn, stopSend)
	}()
	go func() {
		defer close(recvDone)
		defer m.containPanic(w.faultTarget(), "remote-recv")
		m.remoteReceiver(w, conn, skip)
	}()
}

// remoteSender drains the worker's journal onto one connection, flushing
// when it catches up — the natural round boundary (the gate is the last
// frame the manager enqueues). A write failure just ends this
// incarnation: the journal still holds everything at risk, and the
// supervisor decides whether a successor replays it.
func (m *Machine) remoteSender(w *remoteWorker, conn *remote.Conn, stopSend chan struct{}) {
	for {
		w.mu.Lock()
		var msg wireMsg
		have := false
		if w.cursor-w.jBase < int64(len(w.journal)) {
			msg = w.journal[w.cursor-w.jBase]
			w.cursor++
			have = true
		}
		caughtUp := w.cursor-w.jBase >= int64(len(w.journal))
		w.mu.Unlock()
		if !have {
			if conn.Flush() != nil {
				return
			}
			select {
			case <-w.wakeSend:
			case <-stopSend:
				return
			}
			continue
		}
		conn.SetWriteDeadline(time.Now().Add(m.stallTimeout()))
		var err error
		switch msg.kind {
		case remote.FEvents:
			err = conn.SendBatch(remote.FEvents, msg.shard, msg.evs)
		case remote.FGate:
			err = conn.SendTime(remote.FGate, msg.gate)
		case remote.FCheckpointAck:
			err = conn.SendTime(remote.FCheckpointAck, msg.gate)
		case remote.FHeartbeat:
			err = conn.WriteFrame(remote.FHeartbeat, nil)
		case remote.FFinish:
			err = conn.WriteFrame(remote.FFinish, nil)
		}
		if err == nil && caughtUp {
			err = conn.Flush()
		}
		if err != nil {
			return
		}
	}
}

// workerFault ends the run with a SimError charged to worker w.
func (m *Machine) workerFault(w *remoteWorker, op, format string, args ...any) {
	m.setFault(&SimError{
		Core: w.faultTarget(), Op: op, Scheme: m.scheme, GlobalTime: m.global.Load(),
		Detail: fmt.Sprintf(format, args...),
	})
}

// remoteReceiver consumes one connection incarnation's inbound stream:
// reply batches into the worker's hand-off to the round (w.replies),
// watermarks into the worker's mark,
// checkpoints into the journal-truncation path, stats into the worker
// handle. Connection-level failures — broken transport, checksum
// mismatch, deadline past the stall window — end the incarnation
// silently; the supervisor owns the recover-or-abandon verdict. Only
// peer-reported errors (FError) and post-checksum decode failures, which
// mean a worker bug rather than a transport fault, fail the run.
func (m *Machine) remoteReceiver(w *remoteWorker, conn *remote.Conn, skip []int64) {
	r := m.remote
	var scratch []event.Event
	for {
		conn.SetReadDeadline(time.Now().Add(m.stallTimeout()))
		f, err := conn.ReadFrame()
		if err != nil {
			if remote.IsTimeout(err) {
				if r.closing.Load() {
					return
				}
				continue
			}
			return
		}
		if !w.hbStall.Load() {
			w.lastHeard.Store(time.Now().UnixNano())
		}
		switch f.Type {
		case remote.FHeartbeat:
			// Liveness (lastHeard already advanced) plus, when the worker is
			// observed, a sample of its trace clock for offset estimation.
			if ns, ok := remote.DecodeClock(f.Payload); ok {
				m.noteWorkerClock(w, int(w.epoch.Load()), ns)
			}
		case remote.FTraceChunk:
			var tc remote.TraceChunk
			if json.Unmarshal(f.Payload, &tc) == nil && tc.WorkerID == w.id {
				m.storeTraceChunk(w, &tc)
			}
		case remote.FMetrics:
			var up remote.MetricsUpdate
			if json.Unmarshal(f.Payload, &up) == nil && m.met != nil {
				m.met.reg.Fold(fmt.Sprintf("worker%d.", w.id), up.Snapshot)
			}
		case remote.FCheckpointAck:
			// Stale resume ack replayed from the journal; harmless.
		case remote.FReplies:
			shard, evs, derr := conn.DecodeEvents(f.Payload, scratch[:0])
			pos := -1
			if derr == nil && shard < r.n {
				pos = w.shardPos(shard)
			}
			if derr != nil || pos < 0 {
				m.workerFault(w, "remote-recv", "%s: bad reply batch (shard %d): %v", w.name(), shard, derr)
				return
			}
			scratch = evs[:0]
			w.repMu.Lock()
			for i := range evs {
				if skip[pos] > 0 {
					skip[pos]--
					continue
				}
				w.replies = append(w.replies, evs[i])
				w.delivered[pos]++
			}
			w.repMu.Unlock()
			m.bumpMgrEpoch()
		case remote.FWatermark:
			t, derr := remote.DecodeTime(f.Payload)
			if derr != nil {
				m.workerFault(w, "remote-recv", "%s: bad watermark: %v", w.name(), derr)
				return
			}
			if t > w.mark.v.Load() {
				w.mark.v.Store(t)
				select {
				case w.markCh <- struct{}{}:
				default:
				}
			}
		case remote.FCheckpoint:
			wid, gate, batches, perr := remote.PeekCheckpoint(f.Payload)
			if perr != nil || wid != w.id {
				m.workerFault(w, "remote-recv", "%s: bad checkpoint header (worker %d): %v", w.name(), wid, perr)
				return
			}
			w.storeCheckpoint(f.Payload, gate, batches)
			// delivered becomes "pushed since this checkpoint". Replies the
			// previous incarnation delivered beyond this checkpoint's stream
			// position are exactly the not-yet-consumed skip counts.
			copy(w.delivered, skip)
			r.checkpoints.Add(1)
			r.checkpointBytes.Add(int64(len(f.Payload)))
			w.enqueue(wireMsg{kind: remote.FCheckpointAck, gate: gate})
		case remote.FError:
			se := &SimError{
				Core: w.faultTarget(), Op: "remote-worker", Scheme: m.scheme,
				GlobalTime: m.global.Load(),
			}
			if jerr := json.Unmarshal(f.Payload, se); jerr != nil {
				se.Detail = fmt.Sprintf("%s: unparseable error frame: %s", w.name(), f.Payload)
			}
			// The worker's own scheme field is zero — it paces nothing —
			// so stamp the run's.
			se.Scheme = m.scheme
			m.setFault(se)
			return
		case remote.FStats:
			var st remote.WorkerStats
			if json.Unmarshal(f.Payload, &st) == nil {
				if st.ClockNS > 0 {
					// Final clock sample: on heartbeat-less short runs this
					// is the only offset estimate the merge ever gets.
					m.noteWorkerClock(w, int(w.epoch.Load()), st.ClockNS)
				}
				w.stats = st
				w.gotStats = true
			}
		case remote.FBye:
			w.finished.Store(true)
			return
		default:
			m.workerFault(w, "remote-recv", "%s: unexpected %s frame", w.name(), remote.FrameName(f.Type))
			return
		}
	}
}

// superviseWorker owns one worker's connection lifecycle: it watches the
// live incarnation's goroutines and heartbeat freshness, sends an idle
// worker a keepalive, tears down and rebuilds the connection on failure,
// and parks once the worker is finished, abandoned, or the run is shutting
// down. It ticks at the heartbeat interval, capped at half the stall
// timeout so that keepalives (up to two ticks apart) beat the worker's
// orphan timeout of twice the stall timeout.
func (m *Machine) superviseWorker(w *remoteWorker) {
	r := m.remote
	hb := r.opts.heartbeat()
	tick := m.stallTimeout() / 2
	if hb > 0 && hb < tick {
		tick = hb
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	var seen int64
	for {
		w.mu.Lock()
		conn, stopSend, sendDone, recvDone := w.conn, w.stopSend, w.sendDone, w.recvDone
		w.mu.Unlock()

		failed := false
		suspected := false
		for !failed {
			select {
			case <-w.dying:
				// Shutdown: give the receiver one stats-deadline window to
				// finish the FFinish/FStats/FBye exchange, then reel in.
				dl := time.NewTimer(m.remoteHandshakeTimeout())
				select {
				case <-recvDone:
				case <-dl.C:
				}
				dl.Stop()
				conn.Close()
				close(stopSend)
				<-recvDone
				<-sendDone
				w.wireAgg.Add(conn.Stats())
				return
			case <-recvDone:
				failed = true
			case <-sendDone:
				failed = true
			case <-ticker.C:
				// Keepalive: an elided gate sends the worker nothing, and a
				// worker that hears nothing for twice the stall timeout
				// exits as orphaned.
				if w.enqueued.Load() == seen {
					w.enqueue(wireMsg{kind: remote.FHeartbeat})
				}
				seen = w.enqueued.Load()
				since := time.Duration(time.Now().UnixNano() - w.lastHeard.Load())
				switch w.sup.CheckBeat(since, hb) {
				case remote.BeatDead:
					// Silent hang: force the blocked reader out; the failure
					// then takes the ordinary recovery path below.
					conn.Close()
				case remote.BeatLate:
					if !suspected {
						suspected = true
						m.remoteIncident(w, "suspect",
							fmt.Sprintf("no frame for %v", since.Round(time.Millisecond)))
					}
				}
			}
		}

		// This incarnation is over (error or clean FBye). Join both
		// goroutines — after this, delivered/journal state is safely ours.
		conn.Close()
		close(stopSend)
		<-recvDone
		<-sendDone
		w.wireAgg.Add(conn.Stats())
		if w.finished.Load() {
			<-w.dying
			return
		}
		w.sup.Failure()
		m.remoteIncident(w, "reconnecting",
			fmt.Sprintf("connection lost in epoch %d", w.epoch.Load()))
		if m.recoverWorker(w) {
			continue
		}
		w.sup.Abandon()
		m.remoteIncident(w, "abandoned", "retry budget exhausted")
		r.abandoned.Add(1)
		// Wake the manager's watermark wait so it migrates the shards.
		select {
		case w.markCh <- struct{}{}:
		default:
		}
		<-w.dying
		return
	}
}

// recoverWorker runs the redial/restore/replay loop for one failure
// incident, paced by the backoff and bounded by the retry budget.
// Returns false when the worker must be abandoned.
func (m *Machine) recoverWorker(w *remoteWorker) bool {
	r := m.remote
	if r.opts.Redial == nil {
		return false
	}
	for {
		if r.closing.Load() || m.Fault() != nil {
			return false
		}
		delay, ok := w.sup.NextAttempt()
		if !ok {
			return false
		}
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-w.dying:
			t.Stop()
			return false
		}
		tr, err := r.opts.Redial(w.id)
		if err != nil {
			continue
		}
		if m.resumeWorker(w, tr) {
			return true
		}
	}
}

// resumeWorker runs the resumable-session handshake over a fresh
// transport: hello with ResumeSession, ship the stored checkpoint, await
// the worker's ack, then rewind the journal cursor and spawn a new
// connection incarnation that replays everything after the checkpoint.
func (m *Machine) resumeWorker(w *remoteWorker, t remote.Transport) bool {
	r := m.remote
	conn := remote.NewConn(t)
	w.epoch.Add(1)
	deadline := time.Now().Add(m.remoteHandshakeTimeout())
	conn.SetWriteDeadline(deadline)
	err := conn.SendHello(m.remoteHello(w, true))
	if err == nil {
		_, err = conn.AwaitWelcome(deadline)
	}
	var ckGate int64
	if err == nil {
		w.mu.Lock()
		ck := append([]byte(nil), w.ckpt...)
		ckGate = w.ckptGate
		w.mu.Unlock()
		err = conn.WriteFrame(remote.FCheckpoint, ck)
		if err == nil {
			err = conn.Flush()
		}
	}
	if err == nil {
		conn.SetReadDeadline(deadline)
		var f remote.Frame
		f, err = conn.ReadFrame()
		if err == nil && f.Type != remote.FCheckpointAck {
			err = fmt.Errorf("%s frame while awaiting resume ack", remote.FrameName(f.Type))
		}
		if err == nil {
			var ackT int64
			ackT, err = remote.DecodeTime(f.Payload)
			if err == nil && ackT != ckGate {
				err = fmt.Errorf("resume ack for gate %d, want %d", ackT, ckGate)
			}
		}
	}
	conn.SetWriteDeadline(time.Time{})
	if err != nil {
		conn.Close()
		w.wireAgg.Add(conn.Stats())
		return false
	}

	// Restored: rewind the send cursor to the journal base (the journal
	// is truncated exactly to the stored checkpoint) and re-send the
	// highest gate ever issued behind the replay, so a gate that was
	// truncated with its batches still produces a watermark.
	w.mu.Lock()
	w.conn = conn
	w.cursor = w.jBase
	if w.maxGateEver > 0 {
		w.journal = append(w.journal, wireMsg{kind: remote.FGate, gate: w.maxGateEver})
	}
	replayed := int64(0)
	for i := range w.journal {
		if w.journal[i].kind == remote.FEvents {
			replayed++
		}
	}
	w.stopSend = make(chan struct{})
	w.sendDone = make(chan struct{})
	w.recvDone = make(chan struct{})
	stopSend, sendDone, recvDone := w.stopSend, w.sendDone, w.recvDone
	skip := make([]int64, len(w.shards))
	copy(skip, w.delivered)
	w.mu.Unlock()

	w.hbStall.Store(false)
	w.lastHeard.Store(time.Now().UnixNano())
	r.reconnects.Add(1)
	r.replayedBatches.Add(replayed)
	m.spawnConnGoroutines(w, conn, stopSend, sendDone, recvDone, skip)
	w.sup.Recovered()
	m.remoteIncident(w, "recovered",
		fmt.Sprintf("epoch %d, replaying %d batches", w.epoch.Load(), replayed))
	return true
}

// adoptWorker migrates an abandoned worker's shards into the parent:
// restore each shard from the stored checkpoint, replay the journal's
// event batches into the local heaps, and let the manager process them
// through the shared applyMemEvent path from here on. The replies the dead
// worker already delivered are suppressed by count, so the InQs see the
// sequence exactly once. Manager role only.
func (m *Machine) adoptWorker(w *remoteWorker) {
	r := m.remote
	w.mu.Lock()
	ck := append([]byte(nil), w.ckpt...)
	journal := append([]wireMsg(nil), w.journal...)
	w.mu.Unlock()
	dec, err := remote.DecodeCheckpoint(ck)
	if err != nil {
		m.workerFault(w, "remote-adopt", "%s: stored checkpoint unusable: %v", w.name(), err)
		return
	}
	w.adoptedFlag = true
	w.mark.v.Store(math.MaxInt64)
	for i := range dec.Shards {
		sc := &dec.Shards[i]
		pos := w.shardPos(sc.Shard)
		if pos < 0 || sc.Shard >= r.n {
			continue
		}
		l2, err := cache.NewL2System(m.cfg.Cache)
		as := &hostedShard{idx: sc.Shard, l2: l2, skip: w.delivered[pos]}
		if err == nil {
			err = as.restore(sc)
		}
		if err != nil {
			m.workerFault(w, "remote-adopt", "shard %d: %v", sc.Shard, err)
			return
		}
		as.reply = func(core int, ev event.Event) {
			if as.skip > 0 {
				as.skip--
				return
			}
			m.pushReply(core, ev)
		}
		r.adopted[sc.Shard] = as
	}
	replayed := int64(0)
	for i := range journal {
		e := &journal[i]
		if e.kind != remote.FEvents {
			continue
		}
		if as := r.adopted[e.shard]; as != nil {
			for _, ev := range e.evs {
				as.gq.Push(ev)
			}
			replayed++
		}
	}
	// The checkpoint's event count is work the lost worker completed that
	// no FStats frame will ever report; the journal replay re-counts the
	// rest as the manager processes it locally.
	m.evShard += dec.Events
	r.replayedBatches.Add(replayed)
	r.migrated.Add(int64(len(dec.Shards)))
	m.remoteIncident(w, "adopted",
		fmt.Sprintf("%d shard(s) migrated in-process", len(dec.Shards)))
}

// adoptAbandonedWorkers migrates the shards of every newly abandoned
// worker (manager role; cheap no-op scan in the common case).
func (m *Machine) adoptAbandonedWorkers() {
	for _, w := range m.remote.workers {
		if !w.adoptedFlag && w.sup.State() == remote.SupAbandoned {
			m.adoptWorker(w)
		}
	}
}

// storeCheckpoint records a checkpoint payload and truncates the journal
// to it: every entry before the first unconsumed batch is acknowledged
// state and will never need replaying. The cut never passes the send
// cursor — an entry the sender has not transmitted cannot have been
// consumed, whatever the header claims.
func (w *remoteWorker) storeCheckpoint(payload []byte, gate, batches int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ckpt = append(w.ckpt[:0], payload...)
	w.ckptGate, w.ckptBatches = gate, batches
	limit := int(w.cursor - w.jBase)
	cut := 0
	for cut < len(w.journal) && cut < limit {
		e := &w.journal[cut]
		if e.kind == remote.FFinish || (e.kind == remote.FEvents && e.batch >= batches) {
			break
		}
		cut++
	}
	if cut > 0 {
		n := copy(w.journal, w.journal[cut:])
		for i := n; i < len(w.journal); i++ {
			w.journal[i] = wireMsg{} // release the event slices
		}
		w.journal = w.journal[:n]
		w.jBase += int64(cut)
	}
}

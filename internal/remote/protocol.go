package remote

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"

	"slacksim/internal/cache"
	"slacksim/internal/metrics"
	"slacksim/internal/trace"
)

// Version is the wire-protocol version. The handshake rejects any
// mismatch outright — the protocol carries simulator-internal structures
// (event layout, cache config) whose compatibility across versions is
// exactly what a version bump declares broken.
//
// v2: CRC32-C frame envelope (remote.go), heartbeat and checkpoint
// frames, and the resumable-session handshake fields in Hello.
//
// v3: fleet observability — trace-chunk and metrics frames, a worker
// clock sample on every heartbeat (cross-process trace correlation), and
// the observability fields in Hello/WorkerStats.
const Version uint16 = 3

// magic opens every Hello frame so a worker fed a non-slacksim stream
// (wrong port, stray HTTP client) fails fast with a clear error.
const magic = "SLKR"

// Frame types. Parent → worker: FHello, FEvents, FGate, FFinish.
// Worker → parent: FWelcome, FReplies, FWatermark, FError, FStats, FBye.
// Both ways: FHeartbeat, FCheckpoint, FCheckpointAck.
const (
	// FHello opens the handshake: magic, version, then a JSON Hello.
	FHello byte = 0x01
	// FWelcome acknowledges: version, then a JSON Welcome.
	FWelcome byte = 0x02
	// FEvents carries a delta-encoded request batch for one shard.
	FEvents byte = 0x03
	// FGate publishes the allowed time: the worker must process every
	// queued event below it and answer with FWatermark.
	FGate byte = 0x04
	// FReplies carries a delta-encoded reply batch from one shard.
	FReplies byte = 0x05
	// FWatermark acknowledges a gate. The worker sends it only after
	// every FReplies for events below the gate is already written to the
	// stream, so in-order delivery guarantees the parent has the replies
	// once it sees the watermark — the remote analog of the in-process
	// rule that a shard stores its mark after its ring pushes.
	FWatermark byte = 0x06
	// FError carries a worker's JSON-serialized SimError (panic, injected
	// fault, or handshake rejection). Terminal: the worker exits after it.
	FError byte = 0x07
	// FFinish tells the worker the run is over; it must answer FStats.
	FFinish byte = 0x08
	// FStats carries the worker's JSON WorkerStats (per-shard L2 counters,
	// event counts, wire counters).
	FStats byte = 0x09
	// FBye is the worker's end-of-stream marker after FStats; the parent
	// joins its receiver on it and closes the connection.
	FBye byte = 0x0A
	// FHeartbeat is the worker's liveness beacon: sent whenever the
	// connection has been read-idle for one heartbeat interval, so the
	// parent's supervisor can tell a slow worker from a dead one without
	// waiting out the full stall timeout. The payload is the worker's
	// trace-clock sample (8-byte little-endian ns since the worker's
	// collector was created, or empty when the worker traces nothing);
	// the parent subtracts it from its own trace clock at receive time to
	// estimate the offset that rebases the worker's records. The parent
	// sends an empty one to a worker it has enqueued nothing else for since
	// its previous heartbeat tick (gates covering no request are elided),
	// so an idle worker's orphan timeout never fires during a live run; the
	// worker answers it with a heartbeat of its own.
	FHeartbeat byte = 0x0B
	// FCheckpoint carries serialized shard state (checkpoint.go). The
	// worker emits one every CheckpointEvery gates; the parent stores the
	// payload verbatim, truncates its replay journal at the checkpoint's
	// batch boundary, and acknowledges with FCheckpointAck. On a resumed
	// session the direction reverses: the parent sends its stored
	// checkpoint right after the handshake and the worker restores from
	// it, answering FCheckpointAck.
	FCheckpoint byte = 0x0C
	// FCheckpointAck acknowledges a checkpoint with its gate timestamp
	// (8-byte payload, like FGate/FWatermark).
	FCheckpointAck byte = 0x0D
	// FTraceChunk carries a worker's JSON TraceChunk: a session/epoch-
	// stamped snapshot of its trace rings plus a clock sample. The worker
	// sends one alongside each checkpoint and a final one before FStats;
	// each chunk supersedes the previous one for that worker's epoch.
	FTraceChunk byte = 0x0E
	// FMetrics carries a worker's JSON MetricsUpdate (a registry
	// snapshot). Sent periodically so the parent's live /metrics covers
	// the fleet mid-run; the final snapshot rides in FStats instead.
	FMetrics byte = 0x0F
)

// FrameName names a frame type for diagnostics.
func FrameName(t byte) string {
	switch t {
	case FHello:
		return "hello"
	case FWelcome:
		return "welcome"
	case FEvents:
		return "events"
	case FGate:
		return "gate"
	case FReplies:
		return "replies"
	case FWatermark:
		return "watermark"
	case FError:
		return "error"
	case FFinish:
		return "finish"
	case FStats:
		return "stats"
	case FBye:
		return "bye"
	case FHeartbeat:
		return "heartbeat"
	case FCheckpoint:
		return "checkpoint"
	case FCheckpointAck:
		return "checkpoint-ack"
	case FTraceChunk:
		return "trace-chunk"
	case FMetrics:
		return "metrics"
	}
	return fmt.Sprintf("unknown(%#02x)", t)
}

// Hello is the parent's handshake payload: everything a worker needs to
// build its shards' timing state identically to the in-process driver.
type Hello struct {
	// WorkerID indexes this worker among the run's workers (diagnostics
	// and fault attribution).
	WorkerID int `json:"worker_id"`
	// Shards lists the shard indices this worker owns.
	Shards []int `json:"shards"`
	// NumShards is the run's total shard count (bank mod NumShards
	// routing happens at the parent; the worker only needs the total for
	// sanity checks).
	NumShards int `json:"num_shards"`
	// NumCores is the target machine's core count (sizes reply routing).
	NumCores int `json:"num_cores"`
	// Cache is the full hierarchy configuration; each shard instantiates
	// its own L2System from it, exactly as newShardState does.
	Cache cache.Config `json:"cache"`
	// StallTimeoutMS keys the worker's read deadline off the parent's
	// stall watchdog, so an orphaned worker (parent killed) exits on its
	// own instead of lingering.
	StallTimeoutMS int64 `json:"stall_timeout_ms"`
	// HeartbeatMS is the worker's liveness-beacon interval; 0 disables
	// heartbeats (the worker then falls back to its own default, if any).
	HeartbeatMS int64 `json:"heartbeat_ms,omitempty"`
	// CheckpointEvery is the number of acknowledged gates between shard
	// checkpoints; 0 disables periodic checkpointing (the parent then has
	// only the initial empty checkpoint to recover from).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// SessionID names the run for logs and session files; stable across
	// reconnects of the same run.
	SessionID string `json:"session_id,omitempty"`
	// ResumeSession marks a reconnect after a worker loss: the parent
	// will follow the handshake with its stored FCheckpoint, and the
	// worker must restore from it (answering FCheckpointAck) before
	// entering the serve loop.
	ResumeSession bool `json:"resume_session,omitempty"`
	// Epoch counts this worker slot's connections within the session
	// (0 for the initial connection, +1 per recovery), so logs and
	// forensics can attribute frames to the right incarnation.
	Epoch int `json:"epoch,omitempty"`
	// Observe asks the worker to run its own trace collector and metrics
	// registry and ship them back (FTraceChunk/FMetrics frames, clock
	// samples on heartbeats, snapshots in FStats). Off by default so an
	// unobserved run pays nothing.
	Observe bool `json:"observe,omitempty"`
}

// Welcome is the worker's handshake acknowledgment.
type Welcome struct {
	WorkerID int  `json:"worker_id"`
	Resumed  bool `json:"resumed,omitempty"`
}

// HandshakeError reports a failed or refused handshake; the caller wraps
// it into a contained SimError naming the worker.
type HandshakeError struct {
	Detail string
}

func (e *HandshakeError) Error() string { return "remote: handshake: " + e.Detail }

// SendHello writes and flushes the parent's opening frame.
func (c *Conn) SendHello(h *Hello) error {
	body, err := json.Marshal(h)
	if err != nil {
		return err
	}
	payload := make([]byte, 0, len(magic)+2+len(body))
	payload = append(payload, magic...)
	payload = binary.LittleEndian.AppendUint16(payload, Version)
	payload = append(payload, body...)
	if err := c.WriteFrame(FHello, payload); err != nil {
		return err
	}
	return c.Flush()
}

// AwaitWelcome blocks (bounded by deadline) for the worker's FWelcome and
// validates the version echo. An FError frame in its place carries the
// worker's refusal (e.g. its own version-mismatch report) and is returned
// as a HandshakeError holding the JSON payload.
func (c *Conn) AwaitWelcome(deadline time.Time) (*Welcome, error) {
	if err := c.SetReadDeadline(deadline); err != nil {
		return nil, err
	}
	defer c.SetReadDeadline(time.Time{})
	f, err := c.ReadFrame()
	if err != nil {
		return nil, err
	}
	switch f.Type {
	case FWelcome:
	case FError:
		return nil, &HandshakeError{Detail: "worker refused: " + string(f.Payload)}
	default:
		return nil, &HandshakeError{Detail: "expected welcome, got " + FrameName(f.Type)}
	}
	if len(f.Payload) < 2 {
		return nil, &HandshakeError{Detail: "short welcome frame"}
	}
	if v := binary.LittleEndian.Uint16(f.Payload); v != Version {
		return nil, &HandshakeError{Detail: fmt.Sprintf("version mismatch: worker speaks v%d, parent v%d", v, Version)}
	}
	var w Welcome
	if err := json.Unmarshal(f.Payload[2:], &w); err != nil {
		return nil, &HandshakeError{Detail: "bad welcome body: " + err.Error()}
	}
	return &w, nil
}

// AcceptHello blocks (bounded by deadline) for the parent's FHello,
// validates magic and version, and replies FWelcome. On a version
// mismatch it still replies — with an FError naming both versions — so
// the parent gets a structured refusal rather than a timeout.
func (c *Conn) AcceptHello(deadline time.Time) (*Hello, error) {
	if err := c.SetReadDeadline(deadline); err != nil {
		return nil, err
	}
	defer c.SetReadDeadline(time.Time{})
	f, err := c.ReadFrame()
	if err != nil {
		return nil, err
	}
	if f.Type != FHello {
		return nil, &HandshakeError{Detail: "expected hello, got " + FrameName(f.Type)}
	}
	if len(f.Payload) < len(magic)+2 || string(f.Payload[:len(magic)]) != magic {
		return nil, &HandshakeError{Detail: "bad magic (not a slacksim parent?)"}
	}
	if v := binary.LittleEndian.Uint16(f.Payload[len(magic):]); v != Version {
		detail := fmt.Sprintf("version mismatch: parent speaks v%d, worker v%d", v, Version)
		c.WriteFrame(FError, []byte(fmt.Sprintf(`{"op":"remote-handshake","detail":%q}`, detail)))
		c.Flush()
		return nil, &HandshakeError{Detail: detail}
	}
	var h Hello
	if err := json.Unmarshal(f.Payload[len(magic)+2:], &h); err != nil {
		return nil, &HandshakeError{Detail: "bad hello body: " + err.Error()}
	}
	if len(h.Shards) == 0 || h.NumCores < 1 {
		return nil, &HandshakeError{Detail: "hello assigns no shards or no cores"}
	}
	ack, err := json.Marshal(Welcome{WorkerID: h.WorkerID, Resumed: h.ResumeSession})
	if err != nil {
		return nil, err
	}
	payload := binary.LittleEndian.AppendUint16(nil, Version)
	payload = append(payload, ack...)
	if err := c.WriteFrame(FWelcome, payload); err != nil {
		return nil, err
	}
	if err := c.Flush(); err != nil {
		return nil, err
	}
	return &h, nil
}

// ShardL2 pairs a shard index with its final hierarchy counters.
type ShardL2 struct {
	Shard int           `json:"shard"`
	Stats cache.L2Stats `json:"stats"`
}

// WorkerStats is the FStats payload: everything the parent folds back
// into the Result so a remote run reports identically to an in-process
// one. The observability fields are populated only when the Hello asked
// for them (Observe).
type WorkerStats struct {
	WorkerID int       `json:"worker_id"`
	Events   int64     `json:"events"`
	L2       []ShardL2 `json:"l2"`
	Wire     WireStats `json:"wire"`
	// Metrics is the worker registry's final snapshot; the parent folds
	// it under "worker<i>." so one scrape covers the fleet.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
	// TraceDropped maps writer name to its ring's wrap-around drop count,
	// so the parent can warn that the worker's exported trace is
	// incomplete (the cross-process analog of Collector.TotalDropped).
	TraceDropped map[string]int64 `json:"trace_dropped,omitempty"`
	// ClockNS is the worker's trace-clock sample at stats time (ns since
	// its collector's creation) — a final offset estimate even on runs
	// too short for a heartbeat.
	ClockNS int64 `json:"clock_ns,omitempty"`
}

// TraceChunk is the FTraceChunk payload: one worker's trace-ring
// snapshot, stamped with the session and connection epoch so the parent
// can discard chunks from a dead incarnation.
type TraceChunk struct {
	SessionID string              `json:"session_id"`
	WorkerID  int                 `json:"worker_id"`
	Epoch     int                 `json:"epoch"`
	ClockNS   int64               `json:"clock_ns"`
	Writers   []trace.ChunkWriter `json:"writers"`
}

// MetricsUpdate is the FMetrics payload: a worker registry snapshot for
// live federation between checkpoints.
type MetricsUpdate struct {
	WorkerID int              `json:"worker_id"`
	Epoch    int              `json:"epoch"`
	Snapshot metrics.Snapshot `json:"snapshot"`
}

// AppendClock encodes a trace-clock sample as a heartbeat payload.
func AppendClock(dst []byte, ns int64) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(ns))
}

// DecodeClock reads a heartbeat's clock sample; ok is false for the
// empty (unobserved) payload.
func DecodeClock(payload []byte) (ns int64, ok bool) {
	if len(payload) < 8 {
		return 0, false
	}
	return int64(binary.LittleEndian.Uint64(payload)), true
}

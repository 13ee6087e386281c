// Package remote implements the wire protocol of the distributed
// remote-shard backend: shard groups of the memory hierarchy run in
// separate OS processes and exchange timestamped event batches with the
// parent simulation over a length-prefixed binary protocol.
//
// The protocol is slack-tolerant by construction. The parent's pacing
// round computes the allowed time before draining the cores' OutQs, so
// any event routed to a worker after a gate frame carries a timestamp at
// or above every gate already sent; a worker that has acknowledged a gate
// with a watermark will never see an event below it. That is exactly the
// in-process sharded driver's invariant, which is why a remote run is
// bit-identical to an in-process one for the conservative schemes — the
// network only adds host latency, which a slack window of s cycles
// absorbs the same way it absorbs host scheduling jitter.
//
// Framing is minimal: a one-byte frame type, a 4-byte little-endian
// payload length, a 4-byte little-endian CRC32-C of the payload, then
// the payload. The checksum turns a corrupted stream into a structured
// CorruptFrameError naming the frame type and stream offset — which the
// parent's supervisor treats as a connection failure and recovers from —
// instead of a decode panic or silently wrong timing state. Event
// batches are delta-encoded (codec.go); control frames carry either an
// 8-byte timestamp or JSON. See docs/distributed.md for the full layout
// and failure semantics.
package remote

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"
	"time"

	"slacksim/internal/event"
)

// MaxFrame bounds a frame payload; a length prefix beyond it means a
// corrupt or hostile stream and fails the read instead of allocating.
const MaxFrame = 16 << 20

// Transport is the byte stream a Conn runs over. net.Conn satisfies it
// (TCP peers, net.Pipe in tests). Deadlines are part of the contract:
// every blocking read the parent issues is bounded by the stall-watchdog
// timeout, so a dead worker surfaces as a contained timeout error, never
// a parent hang.
type Transport interface {
	io.ReadWriteCloser
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// WireStats counts one connection's traffic, split by direction. The
// send-side fields are written by the sender goroutine and the recv-side
// fields by the receiver goroutine; all are read by stats collection
// after the run, hence the atomics.
type WireStats struct {
	BytesSent   int64 `json:"bytes_sent"`
	BytesRecv   int64 `json:"bytes_recv"`
	FramesSent  int64 `json:"frames_sent"`
	FramesRecv  int64 `json:"frames_recv"`
	EventsSent  int64 `json:"events_sent"`
	EventsRecv  int64 `json:"events_recv"`
	BatchesSent int64 `json:"batches_sent"`
	BatchesRecv int64 `json:"batches_recv"`
	EncodeNS    int64 `json:"encode_ns"`
	DecodeNS    int64 `json:"decode_ns"`
}

// Add accumulates o into s.
func (s *WireStats) Add(o WireStats) {
	s.BytesSent += o.BytesSent
	s.BytesRecv += o.BytesRecv
	s.FramesSent += o.FramesSent
	s.FramesRecv += o.FramesRecv
	s.EventsSent += o.EventsSent
	s.EventsRecv += o.EventsRecv
	s.BatchesSent += o.BatchesSent
	s.BatchesRecv += o.BatchesRecv
	s.EncodeNS += o.EncodeNS
	s.DecodeNS += o.DecodeNS
}

// BytesPerBatch returns the mean encoded size of a sent event batch.
func (s *WireStats) BytesPerBatch() float64 {
	if s.BatchesSent == 0 {
		return 0
	}
	return float64(s.BytesSent) / float64(s.BatchesSent)
}

// Conn frames a Transport. Writes are buffered — callers must Flush after
// the last frame of a round (the gate frame), which is also the natural
// batching boundary: one TCP segment typically carries a whole round's
// event batches plus the gate. A Conn supports one concurrent reader and
// one concurrent writer (the parent's per-connection recv and send
// goroutines); the counters are atomic for exactly that split.
type Conn struct {
	t  Transport
	bw *bufio.Writer

	bytesSent   atomic.Int64
	bytesRecv   atomic.Int64
	framesSent  atomic.Int64
	framesRecv  atomic.Int64
	eventsSent  atomic.Int64
	eventsRecv  atomic.Int64
	batchesSent atomic.Int64
	batchesRecv atomic.Int64
	encodeNS    atomic.Int64
	decodeNS    atomic.Int64

	encBuf  []byte // sender-goroutine scratch
	readBuf []byte // receiver-goroutine scratch
	hdr     [frameHeader]byte
	rhdr    [frameHeader]byte
	tbuf    [8]byte // SendTime payload (sender goroutine)

	// rOff is the stream offset of the next frame to read (receiver
	// goroutine only); CorruptFrameError reports it.
	rOff int64
	// corruptRecv, when armed, flips the next received frame's checksum
	// check — the deterministic hook behind the FrameCorrupt injected
	// fault (internal/faultinject), equivalent to a bit flip on the wire.
	corruptRecv atomic.Bool
}

const frameHeader = 9 // type byte + LE32 length + LE32 CRC32-C(payload)

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptFrameError reports a frame whose payload failed its checksum:
// the frame's claimed type, where in the inbound stream it started, and
// both checksums. The connection is unusable afterwards — framing cannot
// be trusted past a corrupt header/payload — so callers treat it like a
// broken transport.
type CorruptFrameError struct {
	FrameType byte
	Offset    int64 // stream offset of the frame's first header byte
	Want, Got uint32
}

func (e *CorruptFrameError) Error() string {
	return fmt.Sprintf("remote: corrupt %s frame at stream offset %d: crc %08x, want %08x",
		FrameName(e.FrameType), e.Offset, e.Got, e.Want)
}

// InjectRecvCorrupt arms a one-shot checksum failure on the next frame
// this connection reads (fault injection only).
func (c *Conn) InjectRecvCorrupt() { c.corruptRecv.Store(true) }

// NewConn wraps t.
func NewConn(t Transport) *Conn {
	return &Conn{t: t, bw: bufio.NewWriterSize(t, 64<<10)}
}

// Stats snapshots the connection counters.
func (c *Conn) Stats() WireStats {
	return WireStats{
		BytesSent:   c.bytesSent.Load(),
		BytesRecv:   c.bytesRecv.Load(),
		FramesSent:  c.framesSent.Load(),
		FramesRecv:  c.framesRecv.Load(),
		EventsSent:  c.eventsSent.Load(),
		EventsRecv:  c.eventsRecv.Load(),
		BatchesSent: c.batchesSent.Load(),
		BatchesRecv: c.batchesRecv.Load(),
		EncodeNS:    c.encodeNS.Load(),
		DecodeNS:    c.decodeNS.Load(),
	}
}

// Close closes the underlying transport; a blocked Read/Write unblocks
// with an error.
func (c *Conn) Close() error { return c.t.Close() }

// SetReadDeadline bounds the next Read on the transport.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.t.SetReadDeadline(t) }

// SetWriteDeadline bounds the next Write on the transport (the sender
// goroutine arms it per frame group, so a worker that stops reading
// fails the parent's write instead of wedging it on a full TCP buffer).
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.t.SetWriteDeadline(t) }

// WriteFrame appends one frame to the write buffer.
func (c *Conn) WriteFrame(typ byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("remote: frame %#02x payload %d exceeds %d", typ, len(payload), MaxFrame)
	}
	c.hdr[0] = typ
	binary.LittleEndian.PutUint32(c.hdr[1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(c.hdr[5:], crc32.Checksum(payload, castagnoli))
	if _, err := c.bw.Write(c.hdr[:]); err != nil {
		return err
	}
	if _, err := c.bw.Write(payload); err != nil {
		return err
	}
	c.bytesSent.Add(int64(frameHeader + len(payload)))
	c.framesSent.Add(1)
	return nil
}

// Flush pushes buffered frames to the transport.
func (c *Conn) Flush() error { return c.bw.Flush() }

// Frame is one received frame. Payload aliases the connection's read
// buffer and is only valid until the next ReadFrame.
type Frame struct {
	Type    byte
	Payload []byte
}

// ReadFrame blocks for the next frame (subject to the read deadline) and
// verifies its payload checksum; a mismatch returns a *CorruptFrameError.
func (c *Conn) ReadFrame() (Frame, error) {
	off := c.rOff
	if _, err := io.ReadFull(c.t, c.rhdr[:]); err != nil {
		return Frame{}, err
	}
	n := binary.LittleEndian.Uint32(c.rhdr[1:])
	if n > MaxFrame {
		return Frame{}, fmt.Errorf("remote: frame %#02x length %d exceeds %d", c.rhdr[0], n, MaxFrame)
	}
	want := binary.LittleEndian.Uint32(c.rhdr[5:])
	if cap(c.readBuf) < int(n) {
		c.readBuf = make([]byte, n)
	}
	buf := c.readBuf[:n]
	if _, err := io.ReadFull(c.t, buf); err != nil {
		return Frame{}, err
	}
	c.rOff = off + int64(frameHeader) + int64(n)
	c.bytesRecv.Add(int64(frameHeader) + int64(n))
	c.framesRecv.Add(1)
	got := crc32.Checksum(buf, castagnoli)
	if c.corruptRecv.Swap(false) {
		got ^= 0x5A5A5A5A // deterministic injected bit flip
	}
	if got != want {
		return Frame{}, &CorruptFrameError{FrameType: c.rhdr[0], Offset: off, Want: want, Got: got}
	}
	return Frame{Type: c.rhdr[0], Payload: buf}, nil
}

// SendBatch encodes one shard's batch (timed) and frames it under typ
// (FEvents from the parent, FReplies from a worker). The frame stays in
// the write buffer until Flush.
func (c *Conn) SendBatch(typ byte, shard int, evs []event.Event) error {
	t0 := time.Now()
	c.encBuf = AppendBatch(c.encBuf[:0], shard, evs)
	c.encodeNS.Add(time.Since(t0).Nanoseconds())
	c.eventsSent.Add(int64(len(evs)))
	c.batchesSent.Add(1)
	return c.WriteFrame(typ, c.encBuf)
}

// DecodeEvents decodes an FEvents payload (timed), appending onto dst.
func (c *Conn) DecodeEvents(payload []byte, dst []event.Event) (shard int, evs []event.Event, err error) {
	t0 := time.Now()
	shard, evs, err = DecodeBatch(payload, dst)
	c.decodeNS.Add(time.Since(t0).Nanoseconds())
	if err == nil {
		c.eventsRecv.Add(int64(len(evs) - len(dst)))
		c.batchesRecv.Add(1)
	}
	return shard, evs, err
}

// SendTime frames an 8-byte timestamp (gate and watermark frames).
func (c *Conn) SendTime(typ byte, t int64) error {
	binary.LittleEndian.PutUint64(c.tbuf[:], uint64(t))
	return c.WriteFrame(typ, c.tbuf[:])
}

// DecodeTime reads an 8-byte timestamp payload.
func DecodeTime(payload []byte) (int64, error) {
	if len(payload) != 8 {
		return 0, fmt.Errorf("remote: timestamp payload is %d bytes, want 8", len(payload))
	}
	return int64(binary.LittleEndian.Uint64(payload)), nil
}

// IsTimeout reports whether err is a read-deadline expiry (as opposed to
// a closed or broken transport).
func IsTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var to interface{ Timeout() bool }
	return errors.As(err, &to) && to.Timeout()
}

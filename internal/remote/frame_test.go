package remote

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"slacksim/internal/event"
)

// pipePair returns two framed connections over an in-memory duplex pipe.
func pipePair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return NewConn(a), NewConn(b)
}

func readOne(t *testing.T, c *Conn) (Frame, error) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := c.ReadFrame()
	if err == nil {
		// Payload aliases the read buffer; copy for assertions.
		f.Payload = append([]byte(nil), f.Payload...)
	}
	return f, err
}

func TestFrameCRCRoundTrip(t *testing.T) {
	a, b := pipePair(t)
	payloads := [][]byte{nil, {}, {0x00}, bytes.Repeat([]byte{0xAB}, 4096)}
	go func() {
		for i, p := range payloads {
			a.WriteFrame(byte(i+1), p)
		}
		a.Flush()
	}()
	for i, p := range payloads {
		f, err := readOne(t, b)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != byte(i+1) || !bytes.Equal(f.Payload, p) {
			t.Fatalf("frame %d: type %d payload %d bytes", i, f.Type, len(f.Payload))
		}
	}
}

// TestReadFrameResumesAfterTimeout: a read deadline that passes between a
// frame's header and its payload costs nothing — the next ReadFrame
// returns the whole frame. A worker polls its connection under a deadline,
// and used to lose the header, read the payload as the next header and
// stop answering.
func TestReadFrameResumesAfterTimeout(t *testing.T) {
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	var wire bytes.Buffer
	w := NewConn(nopTransport{w: &wire})
	payload := bytes.Repeat([]byte{0xFF}, 32)
	if err := w.WriteFrame(FGate, payload); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	raw := wire.Bytes()
	timedOut := make(chan struct{})
	go func() {
		a.Write(raw[:frameHeader])
		<-timedOut
		a.Write(raw[frameHeader:])
	}()

	r := NewConn(b)
	r.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := r.ReadFrame(); !IsTimeout(err) {
		t.Fatalf("payload-less read: %v, want a timeout", err)
	}
	close(timedOut)
	f, err := readOne(t, r)
	if err != nil {
		t.Fatalf("resumed read: %v", err)
	}
	if f.Type != FGate || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("resumed frame: type %s, %d-byte payload", FrameName(f.Type), len(f.Payload))
	}
}

// TestFrameCorruptionDetected flips one payload byte on the wire and
// asserts the reader returns a structured CorruptFrameError naming the
// frame type and the stream offset of the corrupt frame.
func TestFrameCorruptionDetected(t *testing.T) {
	// Frame 1 is clean, frame 2's payload is corrupted in transit: the
	// error's offset must point at frame 2's header, not at zero.
	var wire bytes.Buffer
	c := NewConn(nopTransport{w: &wire})
	if err := c.WriteFrame(FGate, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFrame(FReplies, []byte("hello replies")); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	raw := wire.Bytes()
	frame2 := frameHeader + 8
	raw[frame2+frameHeader+2] ^= 0x40 // flip a bit inside frame 2's payload

	r := NewConn(nopTransport{r: bytes.NewReader(raw)})
	if _, err := r.ReadFrame(); err != nil {
		t.Fatalf("clean frame 1: %v", err)
	}
	_, err := r.ReadFrame()
	var cfe *CorruptFrameError
	if !errors.As(err, &cfe) {
		t.Fatalf("corrupt frame error type: %v", err)
	}
	if cfe.FrameType != FReplies {
		t.Fatalf("corrupt frame type %s, want replies", FrameName(cfe.FrameType))
	}
	if cfe.Offset != int64(frame2) {
		t.Fatalf("corrupt frame offset %d, want %d", cfe.Offset, frame2)
	}
	if !strings.Contains(err.Error(), "replies") || !strings.Contains(err.Error(), "offset") {
		t.Fatalf("error text lacks frame name/offset: %q", err)
	}
}

// TestInjectRecvCorrupt pins the FrameCorrupt fault hook: an armed
// connection fails exactly one checksum, then reads cleanly again.
func TestInjectRecvCorrupt(t *testing.T) {
	var wire bytes.Buffer
	w := NewConn(nopTransport{w: &wire})
	w.WriteFrame(FHeartbeat, nil)
	w.WriteFrame(FGate, []byte{8, 7, 6, 5, 4, 3, 2, 1})
	w.Flush()

	r := NewConn(nopTransport{r: bytes.NewReader(wire.Bytes())})
	r.InjectRecvCorrupt()
	_, err := r.ReadFrame()
	var cfe *CorruptFrameError
	if !errors.As(err, &cfe) || cfe.FrameType != FHeartbeat {
		t.Fatalf("injected corruption: %v", err)
	}
	if f, err := r.ReadFrame(); err != nil || f.Type != FGate {
		t.Fatalf("read after one-shot corruption: %v", err)
	}
}

// nopTransport adapts a reader/writer into a Transport for wire-level
// tests (deadlines are no-ops; nothing blocks on a bytes.Reader).
type nopTransport struct {
	r *bytes.Reader
	w *bytes.Buffer
}

func (n nopTransport) Read(p []byte) (int, error) {
	if n.r == nil {
		return 0, errors.New("not readable")
	}
	return n.r.Read(p)
}

func (n nopTransport) Write(p []byte) (int, error) {
	if n.w == nil {
		return 0, errors.New("not writable")
	}
	return n.w.Write(p)
}

func (nopTransport) Close() error                       { return nil }
func (nopTransport) SetReadDeadline(time.Time) error    { return nil }
func (nopTransport) SetWriteDeadline(t time.Time) error { return nil }

func TestCheckpointRoundTrip(t *testing.T) {
	in := &Checkpoint{
		WorkerID: 3,
		Gate:     123456,
		Batches:  789,
		Events:   4242,
		Shards: []ShardCheckpoint{
			{Shard: 1, L2: []byte{1, 9, 0, 0, 7}, Pending: []event.Event{
				{Kind: event.KReadShared, Core: 2, Time: 123500, Seq: 9, Addr: 0x1000},
				{Kind: event.KReadExcl, Core: 0, Time: 123600, Seq: 4, Addr: 0x2040,
					VictimAddr: 0x99c0, VictimFlags: event.VictimValid},
			}},
			{Shard: 3}, // fresh shard: no state, no pending
		},
	}
	payload := AppendCheckpoint(nil, in)

	wid, gate, batches, err := PeekCheckpoint(payload)
	if err != nil || wid != 3 || gate != 123456 || batches != 789 {
		t.Fatalf("peek: worker=%d gate=%d batches=%d err=%v", wid, gate, batches, err)
	}

	out, err := DecodeCheckpoint(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.WorkerID != in.WorkerID || out.Gate != in.Gate || out.Batches != in.Batches || out.Events != in.Events {
		t.Fatalf("header mismatch: %+v", out)
	}
	if len(out.Shards) != 2 {
		t.Fatalf("%d shards", len(out.Shards))
	}
	if out.Shards[0].Shard != 1 || !bytes.Equal(out.Shards[0].L2, in.Shards[0].L2) {
		t.Fatalf("shard 0 mismatch: %+v", out.Shards[0])
	}
	if !reflect.DeepEqual(out.Shards[0].Pending, in.Shards[0].Pending) {
		t.Fatalf("pending mismatch:\n got %+v\nwant %+v", out.Shards[0].Pending, in.Shards[0].Pending)
	}
	if out.Shards[1].Shard != 3 || len(out.Shards[1].L2) != 0 || len(out.Shards[1].Pending) != 0 {
		t.Fatalf("fresh shard mismatch: %+v", out.Shards[1])
	}
}

func TestCheckpointDecodeRejectsCorruption(t *testing.T) {
	payload := AppendCheckpoint(nil, &Checkpoint{
		WorkerID: 1, Gate: 10, Batches: 2, Events: 5,
		Shards: []ShardCheckpoint{{Shard: 0, L2: []byte{1, 2, 3},
			Pending: []event.Event{{Kind: event.KReadShared, Core: 1, Time: 11, Seq: 1}}}},
	})
	for cut := 0; cut < len(payload); cut++ {
		if _, err := DecodeCheckpoint(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(payload))
		}
	}
	if _, err := DecodeCheckpoint(append(append([]byte{}, payload...), 0xFF)); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
}

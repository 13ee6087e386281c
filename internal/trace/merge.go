package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Cross-process trace correlation: each process (the parent driver and
// every remote worker) runs its own Collector whose clock starts at
// collector creation. Workers serialize their rings into ChunkWriter
// snapshots and ship them over the wire; the parent estimates each
// worker's clock offset from heartbeat-carried clock samples, rebases the
// worker records onto its own clock, and exports everything as one
// Chrome/Perfetto timeline with one pid per process, flow events linking
// each wire batch across the process boundary, and supervision incidents
// as instant events.

// ChunkWriter is the serializable snapshot of one Writer's ring: the
// surviving records oldest-first plus the wrap-around drop count. It is
// the unit the wire protocol's trace-chunk frames carry.
type ChunkWriter struct {
	Name    string
	TID     int32
	Dropped int64
	Recs    []Rec
}

// Chunk snapshots every registered writer. Like Records, it must not run
// concurrently with recording (workers call it between processing passes,
// at checkpoints, and at session end).
func (c *Collector) Chunk() []ChunkWriter {
	if c == nil {
		return nil
	}
	ws := c.Writers()
	out := make([]ChunkWriter, 0, len(ws))
	for _, w := range ws {
		out = append(out, ChunkWriter{
			Name:    w.Name(),
			TID:     w.TID(),
			Dropped: w.Dropped(),
			Recs:    w.Records(),
		})
	}
	return out
}

// Proc is one process's contribution to a merged timeline.
type Proc struct {
	// PID keys the process's tracks (0 = the parent by convention).
	PID int
	// Name labels the process track group ("parent", "worker 1", ...).
	Name string
	// OffsetNS rebases the process's timestamps onto the merged clock:
	// merged TS = record TS + OffsetNS. The parent's offset is 0; a
	// worker's is the parent's estimate of (parent clock − worker clock)
	// taken when a clock sample arrived.
	OffsetNS int64
	Writers  []ChunkWriter
}

// Incident is a supervision lifecycle marker (suspect, reconnecting,
// recovered, abandoned, adopted) rendered as an instant event on the
// owning process's incident track. TS is on the merged (parent) clock.
type Incident struct {
	TS     int64
	PID    int
	Name   string
	Detail string
}

// wireFlowMask keeps the gate time in the low bits of a flow id; the
// worker index lives above it.
const wireFlowMask = 1<<48 - 1

// WireFlowID builds the correlation id both sides of a wire transfer
// record (parent KWireSend, worker KWireRecv): the destination worker in
// the high bits, the gate's simulated time in the low 48.
func WireFlowID(worker int, gate int64) int64 {
	return int64(worker+1)<<48 | (gate & wireFlowMask)
}

// incidentTID is the reserved track id for incident instants (far above
// any engine writer's tid).
const incidentTID = 1 << 20

// WriteChromeMerged exports the given processes as one Chrome trace-event
// JSON timeline: per-process track groups (process_name metadata), every
// writer's records rebased by the process offset, flow events pairing
// KWireSend/KWireRecv records with equal flow ids, and incidents as
// instant events. It must not run concurrently with recording.
func WriteChromeMerged(w io.Writer, procs []Proc, incidents []Incident) error {
	var evs []chromeEvent
	// sends[flowID] = the parent-side send event's (pid, tid, ts);
	// recvs[flowID] = the worker-side receive. Pairs become flows.
	type endpoint struct {
		pid int
		tid int32
		ts  int64
	}
	sends := make(map[int64]endpoint)
	recvs := make(map[int64]endpoint)
	for _, p := range procs {
		evs = append(evs,
			chromeEvent{
				Name: "process_name",
				Ph:   "M",
				PID:  p.PID,
				Args: map[string]any{"name": p.Name},
			},
			chromeEvent{
				Name: "process_sort_index",
				Ph:   "M",
				PID:  p.PID,
				Args: map[string]any{"sort_index": p.PID},
			})
		for _, cw := range p.Writers {
			evs = append(evs,
				chromeEvent{
					Name: "thread_name",
					Ph:   "M",
					PID:  p.PID,
					TID:  int(cw.TID),
					Args: map[string]any{"name": cw.Name},
				},
				chromeEvent{
					Name: "thread_sort_index",
					Ph:   "M",
					PID:  p.PID,
					TID:  int(cw.TID),
					Args: map[string]any{"sort_index": int(cw.TID)},
				})
			for _, r := range cw.Recs {
				ts := r.TS + p.OffsetNS
				switch r.Kind {
				case KWireSend:
					sends[r.Arg] = endpoint{pid: p.PID, tid: cw.TID, ts: ts}
				case KWireRecv:
					recvs[r.Arg] = endpoint{pid: p.PID, tid: cw.TID, ts: ts}
				}
				rb := r
				rb.TS = ts
				evs = append(evs, chromeeventFor(cw.Name, cw.TID, p.PID, rb))
			}
		}
	}
	for id, s := range sends {
		r, ok := recvs[id]
		if !ok {
			continue
		}
		fid := id
		evs = append(evs,
			chromeEvent{
				Name: "wire", Cat: "wire", Ph: "s", ID: &fid,
				TS: usec(s.ts), PID: s.pid, TID: int(s.tid),
			},
			chromeEvent{
				Name: "wire", Cat: "wire", Ph: "f", BP: "e", ID: &fid,
				TS: usec(r.ts), PID: r.pid, TID: int(r.tid),
			})
	}
	for _, in := range incidents {
		evs = append(evs, chromeEvent{
			Name: in.Name,
			Cat:  "supervision",
			Ph:   "i",
			S:    "g",
			TS:   usec(in.TS),
			PID:  in.PID,
			TID:  incidentTID,
			Args: map[string]any{"detail": in.Detail},
		})
	}
	sortChromeEvents(evs)
	enc, err := json.MarshalIndent(evs, "", " ")
	if err != nil {
		return err
	}
	if _, err := w.Write(enc); err != nil {
		return err
	}
	_, err = io.WriteString(w, "\n")
	return err
}

// ParentProc packages the collector's own rings as the merged timeline's
// pid-0 process.
func (c *Collector) ParentProc(name string) Proc {
	return Proc{PID: 0, Name: name, Writers: c.Chunk()}
}

// String renders an incident one-line ("t=12.3ms worker 1 recovered").
func (in Incident) String() string {
	return fmt.Sprintf("t=%.1fms %s (%s)", float64(in.TS)/1e6, in.Name, in.Detail)
}

// sortChromeEvents applies the stable metadata-first-then-time order the
// exports share.
func sortChromeEvents(evs []chromeEvent) {
	sort.SliceStable(evs, func(i, j int) bool {
		mi, mj := evs[i].Ph == "M", evs[j].Ph == "M"
		if mi != mj {
			return mi
		}
		if evs[i].PID != evs[j].PID && (mi || mj) {
			return evs[i].PID < evs[j].PID
		}
		if evs[i].TS != evs[j].TS {
			return evs[i].TS < evs[j].TS
		}
		if evs[i].PID != evs[j].PID {
			return evs[i].PID < evs[j].PID
		}
		return evs[i].TID < evs[j].TID
	})
}

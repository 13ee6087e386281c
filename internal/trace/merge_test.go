package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestWireFlowID(t *testing.T) {
	// Distinct (worker, gate) pairs must map to distinct ids, and the
	// worker index must survive in the high bits even for huge gates.
	ids := map[int64]bool{}
	for w := 0; w < 3; w++ {
		for _, g := range []int64{0, 1, 1000, 1<<48 - 1} {
			id := WireFlowID(w, g)
			if ids[id] {
				t.Fatalf("duplicate flow id for worker %d gate %d", w, g)
			}
			ids[id] = true
		}
	}
	if WireFlowID(0, 5) == WireFlowID(1, 5) {
		t.Error("worker index must distinguish flow ids")
	}
	// Gates above 48 bits still pair: both sides mask identically.
	if WireFlowID(2, 1<<60|7) != WireFlowID(2, (1<<60|7)&wireFlowMask) {
		t.Error("gate masking differs between call sites")
	}
}

// mergedEvents runs WriteChromeMerged and decodes the output.
func mergedEvents(t *testing.T, procs []Proc, ins []Incident) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChromeMerged(&buf, procs, ins); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("merged output is not valid JSON: %v\n%s", err, buf.String())
	}
	return evs
}

func TestWriteChromeMerged(t *testing.T) {
	flow := WireFlowID(0, 100)
	parent := Proc{
		PID:  0,
		Name: "parent",
		Writers: []ChunkWriter{{
			Name: "wire", TID: 9,
			Recs: []Rec{{TS: 1000, Arg: flow, Kind: KWireSend}},
		}},
	}
	worker := Proc{
		PID:      1,
		Name:     "worker 0",
		OffsetNS: 50_000, // worker clock runs 50µs behind the parent's
		Writers: []ChunkWriter{{
			Name: "shard 0", TID: 0,
			Recs: []Rec{
				{TS: 2000, Arg: flow, Kind: KWireRecv},
				{TS: 3000, Arg: 4, Kind: KProcess, Dur: 500},
			},
		}},
	}
	ins := []Incident{{TS: 9_000_000, PID: 1, Name: "worker 0 recovered", Detail: "epoch 1"}}
	evs := mergedEvents(t, []Proc{parent, worker}, ins)

	procNames := map[float64]string{}
	var sawS, sawF, sawIncident bool
	var recvTS float64
	for _, e := range evs {
		switch e["name"] {
		case "process_name":
			args := e["args"].(map[string]any)
			procNames[e["pid"].(float64)] = args["name"].(string)
		case "wire":
			switch e["ph"] {
			case "s":
				sawS = true
			case "f":
				sawF = true
				if e["bp"] != "e" {
					t.Errorf("flow finish missing bp=e: %v", e)
				}
			}
		case "wire_recv":
			recvTS = e["ts"].(float64)
		case "worker 0 recovered":
			sawIncident = true
			if e["ph"] != "i" || e["s"] != "g" {
				t.Errorf("incident not a global instant: %v", e)
			}
			if e["ts"].(float64) != 9000 { // 9ms in µs
				t.Errorf("incident ts = %v, want 9000", e["ts"])
			}
		}
	}
	if procNames[0] != "parent" || procNames[1] != "worker 0" {
		t.Errorf("process names = %v", procNames)
	}
	if !sawS || !sawF {
		t.Errorf("flow pair missing: s=%v f=%v", sawS, sawF)
	}
	if !sawIncident {
		t.Error("incident instant missing")
	}
	// The worker record must be rebased: (2000 + 50000) ns = 52 µs.
	if recvTS != 52 {
		t.Errorf("worker recv ts = %v µs, want 52 (offset rebase)", recvTS)
	}
}

func TestWriteChromeMergedUnpairedFlow(t *testing.T) {
	// A send whose receive never arrived (worker died) must not emit a
	// dangling flow event.
	parent := Proc{PID: 0, Name: "parent", Writers: []ChunkWriter{{
		Name: "wire", TID: 9,
		Recs: []Rec{{TS: 1000, Arg: WireFlowID(0, 7), Kind: KWireSend}},
	}}}
	evs := mergedEvents(t, []Proc{parent}, nil)
	for _, e := range evs {
		if e["ph"] == "s" || e["ph"] == "f" {
			t.Errorf("unpaired send produced a flow event: %v", e)
		}
	}
}

func TestCollectorChunkAndParentProc(t *testing.T) {
	c := NewWithCapacity(4)
	c.SetClock(fakeClock(10))
	w := c.Writer("core 0", 0)
	for i := 0; i < 6; i++ {
		w.Count(KSlack, int64(i))
	}
	ch := c.Chunk()
	if len(ch) != 1 || ch[0].Name != "core 0" || ch[0].TID != 0 {
		t.Fatalf("chunk = %+v", ch)
	}
	if ch[0].Dropped != 2 || len(ch[0].Recs) != 4 {
		t.Errorf("chunk dropped=%d recs=%d, want 2/4", ch[0].Dropped, len(ch[0].Recs))
	}
	p := c.ParentProc("parent")
	if p.PID != 0 || p.OffsetNS != 0 || len(p.Writers) != 1 {
		t.Errorf("ParentProc = %+v", p)
	}
}

func TestIncidentString(t *testing.T) {
	in := Incident{TS: 12_300_000, Name: "worker 1 recovered", Detail: "epoch 1, replaying 4 batches"}
	s := in.String()
	for _, want := range []string{"12.3ms", "worker 1 recovered", "replaying 4 batches"} {
		if !strings.Contains(s, want) {
			t.Errorf("Incident.String() = %q, missing %q", s, want)
		}
	}
}

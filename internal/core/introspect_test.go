package core

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"slacksim/internal/introspect"
	"slacksim/internal/metrics"
)

// longProg keeps the cores busy long enough for HTTP polls to land while
// the run is genuinely in flight.
const longProg = `
# Sum 1..2000000 and exit.
main:
    li   r8, 0
    li   r9, 1
    li   r10, 2000001
loop:
    add  r8, r8, r9
    addi r9, r9, 1
    bne  r9, r10, loop
    li   a0, 0
    syscall 0
`

func TestEnableIntrospectionRequiresMetrics(t *testing.T) {
	srv, err := introspect.New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m := mustMachine(t, sumProg, smallConfig(2))
	if err := m.EnableIntrospection(srv); err == nil {
		t.Fatal("EnableIntrospection without EnableMetrics did not error")
	}
	m.EnableMetrics(metrics.NewRegistry())
	if err := m.EnableIntrospection(srv); err != nil {
		t.Fatal(err)
	}
	if err := m.EnableIntrospection(nil); err != nil {
		t.Fatalf("nil server: %v", err)
	}
}

// TestIntrospectionLive drives the whole stack over real HTTP while a
// parallel run is in flight: /slack must report the machine attached with
// per-core rows, /metrics must expose the engine families, and /stallz
// must render a forensic snapshot of the healthy run.
func TestIntrospectionLive(t *testing.T) {
	srv, err := introspect.New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	m := mustMachine(t, longProg, smallConfig(2))
	m.EnableMetrics(metrics.NewRegistry())
	if err := m.EnableIntrospection(srv); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := m.RunParallel(SchemeS9)
		done <- err
	}()

	base := "http://" + srv.Addr()
	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	// Poll /slack until the run reports progress (or finishes — the
	// sources stay attached either way).
	var snap introspect.SlackSnapshot
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := json.Unmarshal([]byte(get("/slack")), &snap); err != nil {
			t.Fatalf("bad /slack JSON: %v", err)
		}
		if snap.Global > 0 || snap.Done {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !snap.Attached {
		t.Error("/slack reports attached=false during a live run")
	}
	if len(snap.Cores) != 2 {
		t.Fatalf("/slack cores = %d, want 2", len(snap.Cores))
	}
	if snap.Scheme != "S9" {
		t.Errorf("/slack scheme = %q, want S9", snap.Scheme)
	}

	if body := get("/metrics"); !strings.Contains(body, "slacksim_engine_global_advances_total") {
		t.Errorf("/metrics missing engine families:\n%.400s", body)
	}
	if body := get("/stallz"); !strings.Contains(body, "engine snapshot") {
		t.Errorf("/stallz = %.200q", body)
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// After the run the endpoints still answer, with done=true.
	if err := json.Unmarshal([]byte(get("/slack")), &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Done {
		t.Error("/slack done=false after the run returned")
	}
	// The workload is register-bound on all but core 0, so only the
	// aggregate is guaranteed: somebody's fetch misses went to memory.
	var lat int64
	for _, c := range snap.Cores {
		lat += c.MemLatCount
	}
	if lat == 0 {
		t.Error("no latency observations in final /slack")
	}
}

// TestIntrospectionLiveFused is the K = 1 counterpart: the lone group
// stores the same per-core clock atomics and feeds the same min-tree as K
// groups, so /slack, /metrics, and /stallz must answer from another
// goroutine while RunFused runs.
func TestIntrospectionLiveFused(t *testing.T) {
	srv, err := introspect.New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	m := mustMachine(t, longProg, smallConfig(2))
	m.EnableMetrics(metrics.NewRegistry())
	if err := m.EnableIntrospection(srv); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := m.RunFused(SchemeS9)
		done <- err
	}()

	base := "http://" + srv.Addr()
	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	var snap introspect.SlackSnapshot
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := json.Unmarshal([]byte(get("/slack")), &snap); err != nil {
			t.Fatalf("bad /slack JSON: %v", err)
		}
		if snap.Global > 0 || snap.Done {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !snap.Attached {
		t.Error("/slack reports attached=false during a live fused run")
	}
	if len(snap.Cores) != 2 {
		t.Fatalf("/slack cores = %d, want 2", len(snap.Cores))
	}
	if snap.Scheme != "S9" {
		t.Errorf("/slack scheme = %q, want S9", snap.Scheme)
	}
	if body := get("/metrics"); !strings.Contains(body, "slacksim_engine_global_advances_total") {
		t.Errorf("/metrics missing engine families:\n%.400s", body)
	}
	if body := get("/stallz"); !strings.Contains(body, "engine snapshot") {
		t.Errorf("/stallz = %.200q", body)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(get("/slack")), &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Done {
		t.Error("/slack done=false after the fused run returned")
	}
}

// TestFusedSlackHighWaters guards the ring high-water gauges at K = 1: the
// lone group's replies travel through the per-core InQ rings, whose
// observers (installed by EnableIntrospection) feed the gauges, so a
// client must see a nonzero inq high-water from the memory replies core
// 0's fetch misses park across rounds.
func TestFusedSlackHighWaters(t *testing.T) {
	srv, err := introspect.New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	m := mustMachine(t, longProg, smallConfig(2))
	m.EnableMetrics(metrics.NewRegistry())
	if err := m.EnableIntrospection(srv); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := m.RunFused(SchemeS9)
		done <- err
	}()

	base := "http://" + srv.Addr()
	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	// Poll until a high-water surfaces mid-run; the gauges only ratchet
	// up (SetMax), so once seen it stays visible.
	var snap introspect.SlackSnapshot
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := json.Unmarshal([]byte(get("/slack")), &snap); err != nil {
			t.Fatalf("bad /slack JSON: %v", err)
		}
		if hw := maxInQHighWater(snap); hw > 0 || snap.Done {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(get("/slack")), &snap); err != nil {
		t.Fatal(err)
	}
	if hw := maxInQHighWater(snap); hw == 0 {
		t.Errorf("fused run left all inq high-waters at zero: %+v", snap.Cores)
	}
}

func maxInQHighWater(snap introspect.SlackSnapshot) int64 {
	var hw int64
	for _, c := range snap.Cores {
		if c.InQHighWater > hw {
			hw = c.InQHighWater
		}
	}
	return hw
}

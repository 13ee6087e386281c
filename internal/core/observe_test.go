package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"slacksim/internal/asm"
	"slacksim/internal/introspect"
	"slacksim/internal/metrics"
	"slacksim/internal/trace"
)

func mustAssemble(t *testing.T, src string) *asm.Program {
	t.Helper()
	prog, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func kindRecs(c *trace.Collector, writer string, k trace.Kind) int {
	n := 0
	for _, w := range c.Writers() {
		if !strings.HasPrefix(w.Name(), writer) {
			continue
		}
		for _, r := range w.Records() {
			if r.Kind == k {
				n++
			}
		}
	}
	return n
}

// TestObservabilityParallel runs the threaded program under bounded slack
// with tracing and metrics attached and checks every observable the
// subsystem promises: slack samples, wait spans, global advances, the
// sync-overhead breakdown, the metric registry, and both exporters, at two
// groups and at one. Both go through the rings; only K = 2 is held to
// window-wait spans, and K = 1 also shows its in-queue depth on /slack.
func TestObservabilityParallel(t *testing.T) {
	for _, k := range []int{2, 1} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) { checkObservability(t, k) })
	}
}

func checkObservability(t *testing.T, k int) {
	m := mustMachine(t, threadsProg, smallConfig(4))
	tc := trace.New()
	reg := metrics.NewRegistry()
	m.EnableTrace(tc)
	m.EnableMetrics(reg)
	if k == 1 {
		srv, err := introspect.New("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if err := m.EnableIntrospection(srv); err != nil {
			t.Fatal(err)
		}
	}
	var res *Result
	var err error
	withGOMAXPROCS(k, func() { res, err = m.RunParallel(SchemeS9) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != expectTotal(4) {
		t.Fatalf("output %q", res.Output)
	}
	if res.Groups != k {
		t.Errorf("Groups = %d, want %d", res.Groups, k)
	}
	var held int64
	for _, st := range res.Stragglers {
		held += st.HeldRounds
	}
	if held == 0 {
		t.Error("no round attributed to a straggler")
	}

	// Sync-overhead breakdown.
	if res.Metrics != reg {
		t.Error("Result.Metrics should be the attached registry")
	}
	if res.EventsProcessed == 0 {
		t.Error("EventsProcessed = 0")
	}
	if len(res.CoreBusy) != 4 || len(res.CoreWait) != 4 {
		t.Fatalf("breakdown lengths %d/%d, want 4/4", len(res.CoreBusy), len(res.CoreWait))
	}
	for i := range res.CoreBusy {
		if res.CoreBusy[i] <= 0 {
			t.Errorf("core %d: CoreBusy = %v", i, res.CoreBusy[i])
		}
		if res.CoreWait[i] < 0 || res.CoreWait[i] > res.CoreBusy[i] {
			t.Errorf("core %d: CoreWait %v outside [0, %v]", i, res.CoreWait[i], res.CoreBusy[i])
		}
	}
	if res.ManagerBusy <= 0 {
		t.Error("ManagerBusy not measured")
	}

	// Metrics registry contents.
	s := reg.Snapshot()
	for _, name := range []string{"engine.events.processed", "engine.global.advances", "engine.window.slides"} {
		if s.Counters[name] == 0 {
			t.Errorf("counter %s = 0", name)
		}
	}
	if s.Counters["cpu.total.committed"] == 0 {
		t.Error("cpu.total.committed = 0")
	}
	if s.Gauges["cache.l2.accesses"] == 0 {
		t.Error("cache.l2.accesses = 0")
	}
	if s.Histograms["engine.slack.sample"].Count == 0 {
		t.Error("no slack samples in metrics")
	}
	if s.Histograms["engine.group.turn_ns"].Count == 0 {
		t.Error("no group turn samples")
	}
	if s.Histograms["event.outq.depth"].Count == 0 {
		t.Error("no OutQ depth observations")
	}
	if inq := s.Gauges["event.c0.inq.high_water"]; k == 1 && inq == 0 {
		t.Error("lone runner left core 0's in-queue high-water at zero")
	}
	var dump bytes.Buffer
	if err := reg.Write(&dump); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump.String(), "engine.slack.sample") {
		t.Error("registry dump missing slack histogram")
	}

	// Trace contents.
	if kindRecs(tc, "core", trace.KSlack) == 0 {
		t.Error("no per-core slack counter records")
	}
	if kindRecs(tc, "manager", trace.KGlobal) == 0 {
		t.Error("no manager global-time records")
	}
	if kindRecs(tc, "manager", trace.KProcess) == 0 {
		t.Error("no manager processing spans")
	}
	if k > 1 && kindRecs(tc, "core", trace.KWait) == 0 {
		t.Error("no core window-wait spans")
	}

	// Chrome export parses and contains the expected tracks.
	var out bytes.Buffer
	if err := tc.WriteChrome(&out); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(out.Bytes(), &evs); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	names := make(map[string]bool)
	for _, ev := range evs {
		if n, ok := ev["name"].(string); ok {
			names[n] = true
		}
	}
	want := []string{"slack core 0", "global manager"}
	if k > 1 {
		want = append(want, "window_wait")
	}
	for _, w := range want {
		if !names[w] {
			t.Errorf("chrome export missing %q events", w)
		}
	}

	// ASCII timeline renders a row per core.
	var tl bytes.Buffer
	if err := tc.SlackTimeline(&tl, 60); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tl.String(), "core 0") || !strings.Contains(tl.String(), "core 3") {
		t.Errorf("timeline missing core rows:\n%s", tl.String())
	}
}

// TestObservabilityQuantum checks the barrier instrumentation.
func TestObservabilityQuantum(t *testing.T) {
	m := mustMachine(t, threadsProg, smallConfig(4))
	tc := trace.New()
	reg := metrics.NewRegistry()
	m.EnableTrace(tc)
	m.EnableMetrics(reg)
	res, err := m.RunParallel(SchemeQ10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != expectTotal(4) {
		t.Fatalf("output %q", res.Output)
	}
	if got := reg.Counter("engine.quantum.barriers").Value(); got == 0 {
		t.Error("no quantum barriers counted")
	}
	if kindRecs(tc, "manager", trace.KBarrier) == 0 {
		t.Error("no barrier instants in the manager trace")
	}
}

// TestObservabilitySharded checks the shard-worker instrumentation.
func TestObservabilitySharded(t *testing.T) {
	m := shardedMachine(t, mustAssemble(t, threadsProg), nil, 4, 2)
	tc := trace.New()
	reg := metrics.NewRegistry()
	m.EnableTrace(tc)
	m.EnableMetrics(reg)
	res, err := m.RunParallel(SchemeS9x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != expectTotal(4) {
		t.Fatalf("output %q", res.Output)
	}
	if res.EventsProcessed == 0 {
		t.Error("EventsProcessed = 0 under shards")
	}
	if kindRecs(tc, "shard", trace.KProcess) == 0 {
		t.Error("no shard-worker processing spans")
	}
	if reg.Histogram("event.shardq.depth").Count() == 0 {
		t.Error("no shard queue depth observations")
	}
}

// TestObservabilitySerial checks the serial driver's samples.
func TestObservabilitySerial(t *testing.T) {
	m := mustMachine(t, threadsProg, smallConfig(4))
	tc := trace.New()
	reg := metrics.NewRegistry()
	m.EnableTrace(tc)
	m.EnableMetrics(reg)
	res := runSerial(t, m)
	if res.Output != expectTotal(4) {
		t.Fatalf("output %q", res.Output)
	}
	if res.EventsProcessed == 0 {
		t.Error("EventsProcessed = 0")
	}
	if kindRecs(tc, "manager", trace.KGlobal) == 0 {
		t.Error("no global-time samples from the serial driver")
	}
	if reg.Counter("cpu.total.committed").Value() == 0 {
		t.Error("cpu stats not published")
	}
}

// TestObservabilityDisabled verifies a plain run records nothing.
func TestObservabilityDisabled(t *testing.T) {
	m := mustMachine(t, threadsProg, smallConfig(4))
	res, err := m.RunParallel(SchemeS9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != expectTotal(4) {
		t.Fatalf("output %q", res.Output)
	}
	if res.Metrics != nil || res.CoreBusy != nil || res.CoreWait != nil ||
		res.EventsProcessed != 0 || res.ManagerBusy != 0 {
		t.Error("observability fields must stay zero when disabled")
	}
}

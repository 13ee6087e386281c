package core

import (
	"sort"
	"testing"

	"slacksim/internal/event"
	"slacksim/internal/trace"
)

// spinProg is register-only work for tens of thousands of cycles, then one print and
// exit: long enough for dozens of adaptation epochs and hundreds of fused
// rounds, and with next to no manager traffic, so the Adaptive controller
// resizes its window under every driver whatever subset of events it counts.
const spinProg = `
main:
    li   r8, 0
    li   r9, 0
    li   r10, 30000
loop:
    add  r8, r8, r9
    addi r9, r9, 1
    bne  r9, r10, loop
    mv   a0, r8
    syscall 12
    li   a0, 0
    syscall 0
`

// runDriver runs m under s on the named driver ("serial", "parallel" —
// which is the sharded manager when m was built with ManagerShards —
// "fused", or "remote" over one in-process loopback worker).
func runDriver(t *testing.T, m *Machine, driver string, s Scheme) *Result {
	t.Helper()
	var res *Result
	var err error
	switch driver {
	case "serial":
		res, err = m.RunSerial()
	case "fused":
		res, err = m.RunFused(s)
	case "remote":
		transports, join := startRemoteWorkers(1)
		res, err = m.RunRemoteSharded(s, transports)
		for _, werr := range join() {
			if werr != nil {
				t.Errorf("worker exit: %v", werr)
			}
		}
	default:
		res, err = m.RunParallel(s)
	}
	if err != nil {
		t.Fatalf("%s %v: %v", driver, s, err)
	}
	return res
}

// driverConfig is smallConfig shaped for the named driver of a table test.
func driverConfig(driver string, cores int) (Config, string) {
	cfg := smallConfig(cores, ModelOoO)
	switch driver {
	case "sharded":
		cfg.ManagerShards = 2
		return cfg, "parallel"
	case "remote":
		cfg.RemoteShards = 2
	}
	return cfg, driver
}

// TestSetTraceFiresOnEveryDriver: the SetTrace callback is part of the one
// manager round, so every paced driver must invoke it — with a global time
// that never goes back and one local clock per core.
func TestSetTraceFiresOnEveryDriver(t *testing.T) {
	for _, driver := range []string{"parallel", "sharded", "fused", "remote"} {
		t.Run(driver, func(t *testing.T) {
			cfg, run := driverConfig(driver, 2)
			m := mustMachine(t, threadsProg, cfg)
			calls, lastG := 0, int64(-1)
			m.SetTrace(func(g int64, locals []int64) {
				calls++
				if g < lastG {
					t.Errorf("global time went back: %d after %d", g, lastG)
				}
				lastG = g
				if len(locals) != cfg.NumCores {
					t.Errorf("len(locals) = %d, want %d", len(locals), cfg.NumCores)
				}
			})
			if res := runDriver(t, m, run, SchemeS9x); res.Output != expectTotal(2) {
				t.Fatalf("output %q", res.Output)
			}
			if calls == 0 {
				t.Fatal("trace callback never invoked")
			}
		})
	}
}

// managerKinds returns the sorted set of trace kinds on the manager track
// of one traced run.
func managerKinds(t *testing.T, driver string, s Scheme) []string {
	t.Helper()
	cfg, run := driverConfig(driver, 2)
	m := mustMachine(t, spinProg, cfg)
	tc := trace.New()
	m.EnableTrace(tc)
	runDriver(t, m, run, s)
	seen := map[string]bool{}
	for _, w := range tc.Writers() {
		if w.Name() != "manager" {
			continue
		}
		for _, r := range w.Records() {
			seen[r.Kind.String()] = true
		}
	}
	var kinds []string
	for k := range seen {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// TestManagerTraceKindParity is TestMetricNameParityAcrossDrivers' sibling
// for the trace: with one visibility step, a window resize (Adaptive) and a
// quantum barrier (Q10) leave the same kinds of record on the manager track
// whichever driver ran.
func TestManagerTraceKindParity(t *testing.T) {
	for _, s := range []Scheme{SchemeA1000, SchemeQ10} {
		want := managerKinds(t, "parallel", s)
		marker := trace.KBarrier
		if s == SchemeA1000 {
			marker = trace.KPhase
		}
		if i := sort.SearchStrings(want, marker.String()); i == len(want) || want[i] != marker.String() {
			t.Fatalf("%v: parallel manager track %v has no %v record; test is vacuous", s, want, marker)
		}
		for _, driver := range []string{"sharded", "fused"} {
			got := managerKinds(t, driver, s)
			if len(got) != len(want) {
				t.Errorf("%v: %s manager kinds %v, parallel %v", s, driver, got, want)
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%v: %s manager kinds %v, parallel %v", s, driver, got, want)
					break
				}
			}
		}
	}
}

// TestSerialL2StatsOnShardedGeometry: the serial loop processes every
// request on the manager's own L2 instance, so its Result must report that
// instance's counters even on a machine built with shards — the serial run
// is the oracle such a geometry is compared against.
func TestSerialL2StatsOnShardedGeometry(t *testing.T) {
	cfg, _ := driverConfig("sharded", 2)
	serial := runDriver(t, mustMachine(t, threadsProg, cfg), "serial", Scheme{})
	if serial.L2Stats.Accesses == 0 {
		t.Fatal("serial L2Stats empty on a sharded geometry")
	}
	par := runDriver(t, mustMachine(t, threadsProg, cfg), "parallel", SchemeL10)
	if serial.L2Stats != par.L2Stats {
		t.Errorf("L2Stats differ on the same geometry:\nserial   %+v\nparallel %+v", serial.L2Stats, par.L2Stats)
	}
}

// TestAuditFlagsRequestBehindVisibilityPass plants the violation the
// auditor's visibility check exists for: a request that reaches the GQ
// stamped well below the bound a conservative pass has already processed
// through.
func TestAuditFlagsRequestBehindVisibilityPass(t *testing.T) {
	cfg := smallConfig(2, ModelOoO)
	cfg.Audit = true
	m := mustMachine(t, sumProg, cfg)
	m.scheme = SchemeCC
	m.processBelow(100)
	if err := m.Fault(); err != nil {
		t.Fatalf("clean pass flagged: %v", err)
	}
	// A fill is not a request: processEvent counts it and does nothing.
	eventAt := func(t int64) event.Event { return event.Event{Kind: event.KFill, Time: t} }
	m.gq.Push(eventAt(99)) // on the last cycle below the bound: tolerated
	m.processBelow(101)
	if err := m.Fault(); err != nil {
		t.Fatalf("request on the bound's last cycle flagged: %v", err)
	}
	m.gq.Push(eventAt(42))
	m.processBelow(102)
	se, ok := m.Fault().(*SimError)
	if !ok || se.Op != "invariant-audit" || se.Event == nil || se.Event.Time != 42 {
		t.Fatalf("late request not flagged: %v", m.Fault())
	}
}

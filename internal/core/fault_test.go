package core

import (
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"slacksim/internal/event"
	"slacksim/internal/faultinject"
)

// pingPongProg: core 0 polls a shared word while core 1 overwrites it —
// guaranteed cross-core invalidation traffic for the delivery-audit tests.
const pingPongProg = `
main:
    la   a0, worker
    li   a1, 1
    syscall 1            # tcreate worker on core 1
    li   r20, 0
rd_loop:
    li   r8, 300
    bge  r20, r8, rd_done
    la   r9, shared
    ld   r10, 0(r9)
    addi r20, r20, 1
    j    rd_loop
rd_done:
    li   a0, 1
    syscall 3            # tjoin
    li   a0, 0
    syscall 0            # exit
worker:
    li   r20, 0
wr_loop:
    li   r8, 300
    bge  r20, r8, wr_done
    la   r9, shared
    sd   r20, 0(r9)
    addi r20, r20, 1
    j    wr_loop
wr_done:
    syscall 2            # texit
.data
.align 8
shared: .dword 0
`

// settleGoroutines waits for the spawned goroutines of a finished run to
// unwind (the runtime needs a moment after wg.Wait returns).
func settleGoroutines(before int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func TestFaultPanicContainmentNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	m := mustMachine(t, sumProg, smallConfig(2))
	if err := m.EnableFaults(faultinject.NewPlan(faultinject.Fault{
		Kind: faultinject.Panic, Core: 0, At: 1,
	})); err != nil {
		t.Fatal(err)
	}
	res, err := m.RunParallel(SchemeS9)
	if err == nil {
		t.Fatal("injected panic did not surface an error")
	}
	if res != nil {
		t.Fatal("faulted run returned a result")
	}
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T, want *SimError", err)
	}
	if se.Core != 0 || se.Op != "core-loop" {
		t.Fatalf("fault attributed to %s/%s, want core 0/core-loop", goroutineName(se.Core), se.Op)
	}
	if !strings.Contains(se.Detail, "injected panic") {
		t.Fatalf("detail = %q", se.Detail)
	}
	if se.Stack == "" {
		t.Fatal("no stack captured")
	}
	if se.Report == nil || len(se.Report.Cores) != 2 {
		t.Fatalf("post-join report missing or wrong shape: %+v", se.Report)
	}
	if n := settleGoroutines(before); n > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, n)
	}
}

func TestFaultManagerPanicContainment(t *testing.T) {
	before := runtime.NumGoroutine()
	m := mustMachine(t, sumProg, smallConfig(2))
	if err := m.EnableFaults(faultinject.NewPlan(faultinject.Fault{
		Kind: faultinject.Panic, Core: faultinject.Manager, At: 1,
	})); err != nil {
		t.Fatal(err)
	}
	_, err := m.RunParallel(SchemeS9)
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T, want *SimError", err)
	}
	if se.Core != faultinject.Manager || se.Op != "manager" {
		t.Fatalf("fault attributed to %s/%s, want manager/manager", goroutineName(se.Core), se.Op)
	}
	if n := settleGoroutines(before); n > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, n)
	}
}

func TestFaultShardWorkerPanicContainment(t *testing.T) {
	cfg := smallConfig(2)
	cfg.ManagerShards = 2
	m := mustMachine(t, pingPongProg, cfg)
	if err := m.EnableFaults(faultinject.NewPlan(faultinject.Fault{
		Kind: faultinject.Panic, Core: faultinject.ShardWorker(1), At: 0,
	})); err != nil {
		t.Fatal(err)
	}
	_, err := m.RunParallel(SchemeS9)
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T, want *SimError", err)
	}
	if se.Core != faultinject.ShardWorker(1) || se.Op != "shard-worker" {
		t.Fatalf("fault attributed to %s/%s, want shard-worker 1", goroutineName(se.Core), se.Op)
	}
}

func TestFaultRingOverflowContainment(t *testing.T) {
	cfg := smallConfig(1)
	cfg.RingCap = 64
	m := mustMachine(t, sumProg, cfg)
	if err := m.EnableFaults(faultinject.NewPlan(faultinject.Fault{
		Kind: faultinject.RingFlood, Core: 0, At: 1,
	})); err != nil {
		t.Fatal(err)
	}
	_, err := m.RunParallel(SchemeS9)
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T, want *SimError", err)
	}
	var of *event.OverflowError
	if !errors.As(err, &of) {
		t.Fatalf("overflow cause not exposed: %v", err)
	}
	if of.Ring != "outq.c0" {
		t.Fatalf("overflow ring = %q, want outq.c0", of.Ring)
	}
	if of.Cap != 64 {
		t.Fatalf("overflow cap = %d, want 64", of.Cap)
	}
	if of.HighWater < int64(of.Cap) {
		t.Fatalf("high water %d below capacity %d", of.HighWater, of.Cap)
	}
}

// TestWatchdogStallReportForensics deadlocks a single-core machine (all
// cores asleep in the kernel, so the global time can never advance) and
// checks the watchdog's forensic report: per-core clocks, flags, and the
// kernel's held-lock owner.
func TestWatchdogStallReportForensics(t *testing.T) {
	cfg := smallConfig(1)
	cfg.StallTimeout = 2 * time.Second
	m := mustMachine(t, deadlockProg, cfg)
	start := time.Now()
	res, err := m.RunParallel(SchemeS9)
	if wall := time.Since(start); wall > 30*time.Second {
		t.Fatalf("watchdog took %v", wall)
	}
	if res != nil {
		t.Fatal("stalled run returned a result")
	}
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("error is %T (%v), want *StallError", err, err)
	}
	r := stall.Report
	if r == nil {
		t.Fatal("no StallReport attached")
	}
	if len(r.Cores) != 1 {
		t.Fatalf("report has %d cores, want 1", len(r.Cores))
	}
	c := r.Cores[0]
	if !c.Blocked {
		t.Fatalf("deadlocked core not reported blocked: %+v", c)
	}
	if c.Local < 0 || c.MaxLocal < c.Local {
		t.Fatalf("implausible clocks in report: %+v", c)
	}
	if r.Kernel == nil || len(r.Kernel.Locks) != 1 {
		t.Fatalf("kernel lock state missing: %+v", r.Kernel)
	}
	lk := r.Kernel.Locks[0]
	if lk.Addr != 8192 || lk.Owner != 0 {
		t.Fatalf("lock forensics = %+v, want addr 8192 owned by core 0", lk)
	}
	if len(lk.Waiters) != 1 || lk.Waiters[0] != 0 {
		t.Fatalf("lock waiters = %v, want [0] (self-deadlock)", lk.Waiters)
	}

	// Both renderings: the text dump names the owner, and the JSON round-
	// trips the same structure.
	text := r.Text()
	for _, want := range []string{"core 0:", "blocked", "owner=c0"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text report missing %q:\n%s", want, text)
		}
	}
	b, jerr := r.JSON()
	if jerr != nil {
		t.Fatal(jerr)
	}
	var back StallReport
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if len(back.Cores) != 1 || !back.Cores[0].Blocked || back.Kernel == nil {
		t.Fatalf("round-tripped report lost data: %+v", back)
	}
}

// TestFaultStallTriggersWatchdog pins core 0's clock with an injected
// stall; the global time can never pass it, so the watchdog must fire and
// the report must name the stalled core.
func TestFaultStallTriggersWatchdog(t *testing.T) {
	cfg := smallConfig(2)
	cfg.StallTimeout = 2 * time.Second
	m := mustMachine(t, sumProg, cfg)
	if err := m.EnableFaults(faultinject.NewPlan(faultinject.Fault{
		Kind: faultinject.Stall, Core: 0, At: 100,
	})); err != nil {
		t.Fatal(err)
	}
	_, err := m.RunParallel(SchemeS9)
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("error is %T (%v), want *StallError", err, err)
	}
	if !strings.Contains(err.Error(), "c0") {
		t.Fatalf("stall error does not name the stalled core: %v", err)
	}
	if r := stall.Report; r == nil || r.Cores[0].Local < 100 || r.Cores[0].Local > r.Global+1 {
		t.Fatalf("report does not pin core 0 at the global time: %+v", r)
	}
}

func TestFaultAuditorCatchesClockWarp(t *testing.T) {
	cfg := smallConfig(2)
	cfg.Audit = true
	cfg.AuditEvery = 1
	m := mustMachine(t, sumProg, cfg)
	if err := m.EnableFaults(faultinject.NewPlan(faultinject.Fault{
		Kind: faultinject.ClockWarp, Core: 0, At: 200, Dur: 100,
	})); err != nil {
		t.Fatal(err)
	}
	_, err := m.RunParallel(SchemeS9)
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T (%v), want *SimError", err, err)
	}
	if se.Op != "invariant-audit" || se.Core != 0 {
		t.Fatalf("violation attributed to %s/%s, want core 0/invariant-audit", goroutineName(se.Core), se.Op)
	}
	if !strings.Contains(se.Detail, "backwards") {
		t.Fatalf("detail = %q, want monotonicity violation", se.Detail)
	}
}

func TestFaultAuditorCatchesLateDelivery(t *testing.T) {
	for _, serial := range []bool{false, true} {
		cfg := smallConfig(2)
		cfg.Audit = true
		cfg.AuditEvery = 1
		m := mustMachine(t, pingPongProg, cfg)
		// Hold invalidations to the polling core 100 cycles past their
		// timestamps: a conservative scheme then delivers them late, which
		// the auditor must flag (delayed invalidations never block the
		// core, so its clock keeps advancing past the held timestamps).
		if err := m.EnableFaults(faultinject.NewPlan(faultinject.Fault{
			Kind: faultinject.DelayDelivery, Core: 0, At: 0, Dur: 100,
			EvKinds: []event.Kind{event.KInv, event.KDowngrade},
		})); err != nil {
			t.Fatal(err)
		}
		var err error
		if serial {
			_, err = m.RunSerial()
		} else {
			_, err = m.RunParallel(SchemeCC)
		}
		var se *SimError
		if !errors.As(err, &se) {
			t.Fatalf("serial=%v: error is %T (%v), want *SimError", serial, err, err)
		}
		if se.Op != "invariant-audit" || !strings.Contains(se.Detail, "late delivery") {
			t.Fatalf("serial=%v: got %s: %q", serial, se.Op, se.Detail)
		}
		if se.Event == nil || (se.Event.Kind != event.KInv && se.Event.Kind != event.KDowngrade) {
			t.Fatalf("serial=%v: offending event not attached: %+v", serial, se.Event)
		}
	}
}

// TestFaultAuditorCleanRun checks the auditor is quiet on healthy runs
// across scheme families (no false positives, including the blocking-
// syscall resume transients).
func TestFaultAuditorCleanRun(t *testing.T) {
	for _, s := range []Scheme{SchemeCC, SchemeS9, SchemeSU} {
		cfg := smallConfig(2)
		cfg.Audit = true
		cfg.AuditEvery = 1
		m := mustMachine(t, pingPongProg, cfg)
		res, err := m.RunParallel(s)
		if err != nil {
			t.Fatalf("%v: auditor false positive: %v", s, err)
		}
		if res.Aborted {
			t.Fatalf("%v: aborted", s)
		}
	}
	cfg := smallConfig(2)
	cfg.Audit = true
	cfg.AuditEvery = 1
	if _, err := runSerialErr(mustMachine(t, pingPongProg, cfg)); err != nil {
		t.Fatalf("serial: auditor false positive: %v", err)
	}
}

func runSerialErr(m *Machine) (*Result, error) { return m.RunSerial() }

func TestFaultPlanValidation(t *testing.T) {
	m := mustMachine(t, sumProg, smallConfig(2))
	bad := []faultinject.Fault{
		{Kind: faultinject.Panic, Core: 7},                              // core out of range
		{Kind: faultinject.Stall, Core: faultinject.Manager},            // non-panic on manager
		{Kind: faultinject.RingFlood, Core: faultinject.ShardWorker(0)}, // non-panic on shard
		{Kind: faultinject.Panic, Core: faultinject.ShardWorker(0)},     // no shards configured
		{Kind: faultinject.DelayDelivery, Core: 0},                      // missing Dur
		{Kind: faultinject.ClockWarp, Core: 0},                          // missing Dur
	}
	for _, f := range bad {
		if err := m.EnableFaults(faultinject.NewPlan(f)); err == nil {
			t.Errorf("fault %v accepted", f)
		}
	}
	if err := m.EnableFaults(nil); err != nil {
		t.Errorf("nil plan rejected: %v", err)
	}
}

// TestContainmentRealPanicPath drives a real (not injected) panic through
// containment: the core commits an invalid instruction and panics.
func TestContainmentRealPanicPath(t *testing.T) {
	// Jump into the data section: the core fetches a non-instruction word.
	prog := `
main:
    la   r9, blob
    jalr r0, r9, 0
.data
.align 8
blob: .dword -1
`
	m := mustMachine(t, prog, smallConfig(1))
	_, err := m.RunParallel(SchemeCC)
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T (%v), want *SimError", err, err)
	}
	if se.Core != 0 {
		t.Fatalf("fault attributed to %s, want core 0", goroutineName(se.Core))
	}
	if !strings.Contains(se.Detail, "committed invalid instruction") {
		t.Fatalf("detail %q, want the core's invalid-instruction panic", se.Detail)
	}
}

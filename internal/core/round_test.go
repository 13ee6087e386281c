package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"slacksim/internal/event"
	"slacksim/internal/sysemu"
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

// blockCore and grantCore are the manager role's two transitions of a
// core's blocked state, as processSyscall and kernel.Notify make them.
func blockCore(m *Machine, i int) { m.blocked[i].Store(1) }

func grantCore(m *Machine, i int, floor int64) {
	m.resumeFloor[i].Store(floor)
	m.blocked[i].Store(0)
}

// runGroupedRace checks the grant-safety property of the global-time scan.
// One goroutine per group publishes monotone clocks for its members in
// turn, pubs[k] holding group k's clock steps, while the calling goroutine
// — the manager role — applies mgr: blocks and grants of members whose
// siblings keep publishing. After every grant globalMin must be at most the
// granted core's max(local, floor), so the global time cannot pass a core
// about to resume and the core cannot inject events into the manager's
// past.
func runGroupedRace(t *testing.T, m *Machine, pubs [][]int64, mgr []byte) {
	t.Helper()
	var wg sync.WaitGroup
	for k := 0; k < m.nGroups; k++ {
		wg.Add(1)
		go func(g *coreGroup, steps []int64) {
			defer wg.Done()
			for s, d := range steps {
				i := g.members[s%len(g.members)].id
				m.publishLocal(i, m.local[i].v.Load()+d)
			}
		}(&m.groups[k], pubs[k])
	}
	n := len(m.local)
	for j := 0; j+1 < len(mgr); j += 2 {
		i := int(mgr[j]>>1) % n
		if mgr[j]&1 == 0 {
			blockCore(m, i)
			continue
		}
		grantCore(m, i, m.local[i].v.Load()+int64(mgr[j+1]))
		got, _ := m.globalMin()
		if bound := max(m.local[i].v.Load(), m.resumeFloor[i].Load()); got > bound {
			t.Errorf("grant %d of core %d: globalMin=%d passes its max(local, floor)=%d", j/2, i, got, bound)
			break
		}
	}
	wg.Wait()
}

// TestGrantSafetyRace runs runGroupedRace on 16 cores in one group, three
// uneven ones and a group per core. Run under -race in CI.
func TestGrantSafetyRace(t *testing.T) {
	const n = 16
	for round := 0; round < 8; round++ {
		for _, k := range []int{1, 3, n} {
			rng := rand.New(rand.NewSource(int64(round*n + k)))
			m := bareMachine(n, 8)
			groupBare(m, k)
			pubs := make([][]int64, m.nGroups)
			for g := range pubs {
				for s := 0; s < 2000; s++ {
					pubs[g] = append(pubs[g], int64(s%7)+1)
				}
			}
			mgr := make([]byte, 4000)
			rng.Read(mgr)
			runGroupedRace(t, m, pubs, mgr)
			if t.Failed() {
				t.Fatalf("round %d, K=%d", round, k)
			}
		}
	}
}

// TestGlobalMinHolder pins the global-time candidate and the core straggler
// attribution charges: the lowest-numbered core at the minimum of the
// effective local times, max(local, floor), with cores blocked in the
// kernel skipped, and the current global time held by none when every core
// is blocked. It also pins holdsGlobal, the test a group makes before its
// per-turn round.
func TestGlobalMinHolder(t *testing.T) {
	m := bareMachine(8, 8)
	groupBare(m, 3) // {0 1 2} {3 4 5} {6 7}
	for i, v := range []int64{50, 30, 40, 45, 30, 60, 70, 30} {
		m.members[i].local = v
		m.publishLocal(i, v)
	}
	m.global.Store(30)
	check := func(step string, wantMin int64, wantHeld int, wantHolds [3]bool) {
		t.Helper()
		if got, held := m.globalMin(); got != wantMin || held != wantHeld {
			t.Errorf("%s: globalMin = %d held by %d, want %d held by %d", step, got, held, wantMin, wantHeld)
		}
		for k, want := range wantHolds {
			if got := m.holdsGlobal(&m.groups[k]); got != want {
				t.Errorf("%s: group %d holdsGlobal = %v, want %v", step, k, got, want)
			}
		}
	}
	check("a three-way tie", 30, 1, [3]bool{true, true, true})
	blockCore(m, 1)
	check("lowest tied core blocked", 30, 4, [3]bool{false, true, true})
	grantCore(m, 1, 35)
	check("granted at a floor above its clock", 30, 4, [3]bool{false, true, true})
	blockCore(m, 4)
	blockCore(m, 7)
	check("the floor is the minimum", 35, 1, [3]bool{false, false, false})
	for i := range m.local {
		blockCore(m, i)
	}
	check("all blocked", 30, -1, [3]bool{false, false, false})
	grantCore(m, 2, 9000)
	check("core 2 granted at 9000", 9000, 2, [3]bool{false, false, false})
}

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
	cfg := smallConfig(cores)
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
	cfg := smallConfig(2)
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

// TestAuditFlagsLateRequestOnHostedShard plants the same violation on the
// memory side of an unsharded machine — its one hosted shard's heap, which
// the hosted backend's gate audits before it processes it.
func TestAuditFlagsLateRequestOnHostedShard(t *testing.T) {
	cfg := smallConfig(2)
	cfg.Audit = true
	m := mustMachine(t, sumProg, cfg)
	m.scheme = SchemeCC
	h := m.shards[0]
	h.reply = func(int, event.Event) {} // no run, no groups: drop the replies
	be := m.shardBackend()
	pass := func(bound int64) {
		be.gate(bound)
		m.processBelow(bound)
	}
	pass(100)
	req := func(t int64) event.Event { return event.Event{Kind: event.KReadShared, Time: t} }
	h.gq.Push(req(99)) // on the last cycle below the bound: tolerated
	pass(101)
	if err := m.Fault(); err != nil {
		t.Fatalf("request on the bound's last cycle flagged: %v", err)
	}
	h.gq.Push(req(42))
	pass(102)
	se, ok := m.Fault().(*SimError)
	if !ok || se.Op != "invariant-audit" || se.Event == nil || se.Event.Time != 42 {
		t.Fatalf("late request on the shard not flagged: %v", m.Fault())
	}
}

// TestExitGetsNoReply: the exit syscall ends the run and, as in the serial
// loop, is never answered. A reply would let the exiting core commit past
// its exit — into data, at worst, where it panicked on an invalid
// instruction before it saw done.
func TestExitGetsNoReply(t *testing.T) {
	m := mustMachine(t, sumProg, smallConfig(2))
	m.beginRun(SchemeCC, 1)
	m.processSyscall(event.Event{Kind: event.KSyscall, Core: 1, Time: 100, Aux: sysemu.SysExit})
	if !m.done.Load() || m.endTime != 100 {
		t.Fatalf("exit did not end the run at its time: done %v, end %d", m.done.Load(), m.endTime)
	}
	if in, _ := m.ringDepths(1); in != 0 {
		t.Fatalf("exiting core got %d replies", in)
	}
}

// TestProgressWatchStampsStreakEnd: the watchdog measures an idle streak
// from its start, however long the productive rounds before it took. A
// remote round can block on the wire for milliseconds, so a stamp left from
// early in a productive streak would count those rounds as stall time.
func TestProgressWatchStampsStreakEnd(t *testing.T) {
	w := newProgressWatch()
	for g := int64(1); g <= 8; g++ {
		w.productive(g)
		time.Sleep(time.Millisecond) // a round blocked on the wire
	}
	end := time.Now()
	if w.idle() {
		t.Fatal("watchdog due on the first idle round")
	}
	if w.lastChange.Before(end) {
		t.Fatalf("idle streak stamped %v before the productive streak ended", end.Sub(w.lastChange))
	}
	stamp := w.lastChange
	time.Sleep(time.Millisecond)
	w.idle()
	if !w.lastChange.Equal(stamp) {
		t.Fatal("a later idle round of the same streak moved the stamp")
	}
}

// BenchmarkDrainOutQs measures one manager drain at ~10% activity: 10% of
// 256 cores pushed one request since the last round, into their groups'
// OutQs, and the drain pops every group's ring once. At 256 groups of one it
// is a scan of one ring per core, what K = N pays.
func BenchmarkDrainOutQs(b *testing.B) {
	const n = 256
	for _, k := range []int{1, 2, 16, n} {
		b.Run(fmt.Sprintf("groups=%d", k), func(b *testing.B) {
			m := bareMachine(n, 8)
			groupBare(m, k)
			b.ResetTimer()
			for r := 0; r < b.N; r++ {
				b.StopTimer()
				for i := 0; i < n/10; i++ {
					c := (i*37 + r) % n
					m.groupOf[c].outQ.MustPush(event.Event{Core: int32(c), Time: int64(r)})
				}
				b.StartTimer()
				m.drainOutQs(m.gq.Push)
				b.StopTimer()
				for m.gq.Len() > 0 { // keep the heap from growing across rounds
					m.gq.Pop()
				}
				b.StartTimer()
			}
		})
	}
}

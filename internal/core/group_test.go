package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slacksim/internal/asm"
	"slacksim/internal/event"
	"slacksim/internal/metrics"
	"slacksim/internal/workloads"
)

// withGOMAXPROCS forces the group count of the runs inside f: K follows
// GOMAXPROCS at the moment a paced run begins.
func withGOMAXPROCS(k int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(k))
	f()
}

// paperMachine builds the paper's 8-core target for prog, sharded when
// shards > 1 and audited throughout, with the workload's input (if any) at
// scale.
func paperMachine(t *testing.T, prog *asm.Program, w *workloads.Workload, scale, shards int) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MemSize = 64 << 20
	cfg.MaxCycles = 200_000_000
	cfg.ManagerShards = shards
	cfg.Audit = true
	m, err := NewMachine(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		if err := w.Init(m.Image(), scale); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func oceanProg(t *testing.T, scale int) (*asm.Program, *workloads.Workload) {
	t.Helper()
	w, err := workloads.Get("ocean")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(w.Source(scale), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog, w
}

// slowHost reports whether the serial engine took more than ten times what
// it takes on the reference sandbox: a loaded host, or the race detector.
// The timed sweeps below then run their minimum, so the package stays inside
// go test's default ten minutes under -race.
func slowHost(ref *Result, usual time.Duration) bool { return ref.Wall > 10*usual }

// TestGroupedConservativeExact: round-robin inside a group is a legal
// schedule of the parallel engine, so however the eight cores are split —
// one group, two, an uneven 3/3/2, or one core per group — every
// conservative scheme must reproduce the serial reference bit for bit, on
// the unsharded and the sharded manager, with the invariant auditor on. The
// whole matrix runs the lock-and-barrier program; ocean, with real memory
// traffic, runs the uneven split (on a slow host: unsharded, CC and S9*).
func TestGroupedConservativeExact(t *testing.T) {
	oprog, w := oceanProg(t, 1)
	tprog := mustAssemble(t, threadsProg)
	check := func(name string, m *Machine, ref *Result, k int, s Scheme) {
		var res *Result
		var err error
		withGOMAXPROCS(k, func() { res, err = m.RunParallel(s) })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.EndTime != ref.EndTime || res.ExitCode != ref.ExitCode || res.Output != ref.Output {
			t.Errorf("%s: end %d exit %d output %q, serial end %d exit %d output %q",
				name, res.EndTime, res.ExitCode, res.Output, ref.EndTime, ref.ExitCode, ref.Output)
		}
		if res.L2Stats != ref.L2Stats {
			t.Errorf("%s: L2 stats\n got  %+v\n want %+v", name, res.L2Stats, ref.L2Stats)
		}
		if res.TimeWarps != 0 || res.CoherenceWarps != 0 {
			t.Errorf("%s: warps (%d, %d)", name, res.TimeWarps, res.CoherenceWarps)
		}
	}
	slow := false
	for _, shards := range []int{0, 2} {
		threadsRef := runSerial(t, paperMachine(t, tprog, nil, 1, shards))
		for _, k := range []int{1, 2, 3, 8} {
			for _, s := range []Scheme{SchemeCC, SchemeQ10, SchemeL10, SchemeS9x} {
				check(fmt.Sprintf("threads/shards=%d/K=%d/%v", shards, k, s),
					paperMachine(t, tprog, nil, 1, shards), threadsRef, k, s)
			}
		}
		if slow {
			continue
		}
		oceanRef := runSerial(t, paperMachine(t, oprog, w, 1, shards))
		slow = slowHost(oceanRef, 80*time.Millisecond)
		for _, s := range []Scheme{SchemeCC, SchemeQ10, SchemeL10, SchemeS9x} {
			if slow && s.Kind != CC && s.Kind != OldestFirst {
				continue
			}
			check(fmt.Sprintf("ocean/shards=%d/K=3/%v", shards, s), paperMachine(t, oprog, w, 1, shards), oceanRef, 3, s)
		}
	}
}

// TestGroupedOptimisticErrorBound pins the accuracy the optimistic turn
// rules are there for (a critical-latency turn, a manager round after every
// turn taken by a group that is ahead, the half-window lead cap;
// docs/engine.md "Grouped execution"): with two groups of four cores, S100's
// execution-time error on ocean stays under 1.5 % on every one of ten runs
// (two on a slow host), and the audited invariant
// Global <= Local <= MaxLocal holds throughout.
func TestGroupedOptimisticErrorBound(t *testing.T) {
	if testing.Short() {
		t.Skip("ten scale-2 runs")
	}
	prog, w := oceanProg(t, 2)
	ref := runSerial(t, paperMachine(t, prog, w, 2, 0))
	runs := 10
	if slowHost(ref, 350*time.Millisecond) {
		runs = 2
	}
	for run := 0; run < runs; run++ {
		m := paperMachine(t, prog, w, 2, 0)
		var res *Result
		var err error
		withGOMAXPROCS(2, func() { res, err = m.RunParallel(SchemeS100) })
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if err := w.Verify(m.Image(), res.Output, 2); err != nil {
			t.Errorf("run %d: %v", run, err)
		}
		d := res.ROICycles() - ref.ROICycles()
		if d < 0 {
			d = -d
		}
		ppm := d * 1_000_000 / ref.ROICycles()
		t.Logf("run %d: ROI %d vs serial %d: %d ppm, %d time warps", run, res.ROICycles(), ref.ROICycles(), ppm, res.TimeWarps)
		if ppm > 15_000 {
			t.Errorf("run %d: error %d ppm exceeds 15000", run, ppm)
		}
	}
}

// oneThreadProg keeps core 0 busy with loads and stores for some thousands of
// cycles and never starts another thread: seven of the eight cores only
// ever follow the global time.
const oneThreadProg = `
main:
    li   r8, 0
    li   r9, 800
    la   r10, buf
loop:
    sd   r8, 0(r10)
    ld   r11, 0(r10)
    addi r10, r10, 64
    addi r8, r8, 1
    blt  r8, r9, loop
    li   a0, 0
    syscall 0
.data
.align 8
buf: .space 65536
`

// TestGroupedGoroutineCount: a run keeps K group goroutines plus the
// backend's own, whatever the program — in particular no goroutine per
// unused target core, which the per-core fabric left spinning for the whole
// run. Sampled from the manager's SetTrace callback on every driver.
func TestGroupedGoroutineCount(t *testing.T) {
	const k = 2
	for _, driver := range []string{"parallel", "sharded", "remote"} {
		t.Run(driver, func(t *testing.T) {
			cfg, run := driverConfig(driver, 8)
			m := mustMachine(t, oneThreadProg, cfg)
			// The caller is one of the run's K groups, which run the
			// manager's rounds between their turns, memory shards included;
			// the remote backend adds only its wire goroutines.
			want := map[string]int{
				"parallel": k - 1,
				"sharded":  k - 1,
				"remote":   k + 2, // one worker: sender, receiver, supervisor
			}[driver]
			base, samples, off := 0, 0, 0
			m.SetTrace(func(int64, []int64) {
				if m.done.Load() {
					return // the groups leave the moment the last round ends the run
				}
				samples++
				if n := runtime.NumGoroutine() - base; n != want {
					off++
					if off == 1 {
						t.Errorf("%d goroutines beyond the caller's during the run, want %d", n, want)
					}
				}
			})
			withGOMAXPROCS(k, func() {
				if run == "remote" {
					// The in-process worker session is the test's goroutine,
					// not the run's: start it before taking the base count.
					tr, join := startRemoteWorkers(1)
					base = runtime.NumGoroutine()
					if _, err := m.RunRemoteSharded(SchemeS9x, tr); err != nil {
						t.Fatal(err)
					}
					for _, werr := range join() {
						if werr != nil {
							t.Errorf("worker exit: %v", werr)
						}
					}
					return
				}
				base = runtime.NumGoroutine()
				runDriver(t, m, run, SchemeS9x)
			})
			if samples == 0 {
				t.Fatal("trace callback never invoked")
			}
			if off > 0 {
				t.Errorf("%d of %d samples off", off, samples)
			}
		})
	}
}

// TestGroupWaitNeverStarvesBackend guards the spin discipline: a waiting
// group yields before anything else, so the group holding the manager role
// (memory shards included) gets the host thread it needs. On two host
// threads the per-core-goroutine fabric this replaced ran the workload
// (cholesky scale 1, L10, two shards) in 2.3-2.7x the wall time of the
// serial engine on the same machine, the serial run calibrating the host;
// grouped execution measures 1.6-1.9x. A group that spins through its wait
// without yielding took a sharded run to 2.2-2.9x its per-core-goroutine
// time, hence the bound of twice the recorded baseline. (Under the race
// detector the serial engine is the slower of the two and the ratio is
// about 0.7 on either fabric, so the test skips itself there.)
func TestGroupWaitNeverStarvesBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("timed workload run")
	}
	w, err := workloads.Get("cholesky")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(w.Source(1), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const baseline = 2.5 // per-core-goroutine wall ÷ serial wall, as recorded
	best := 0.0
	for try := 0; try < 3; try++ {
		ref := runSerial(t, paperMachine(t, prog, w, 1, 2))
		if slowHost(ref, 80*time.Millisecond) {
			t.Skip("slow host (or the race detector): the ratio to the serial engine says nothing here")
		}
		m := paperMachine(t, prog, w, 1, 2)
		var res *Result
		withGOMAXPROCS(2, func() { res, err = m.RunParallel(SchemeL10) })
		if err != nil {
			t.Fatal(err)
		}
		if res.EndTime != ref.EndTime {
			t.Fatalf("end %d != serial %d", res.EndTime, ref.EndTime)
		}
		ratio := res.Wall.Seconds() / ref.Wall.Seconds()
		t.Logf("try %d: sharded L10 %v, serial %v: ratio %.2f", try, res.Wall, ref.Wall, ratio)
		if best == 0 || ratio < best {
			best = ratio
		}
		if best <= 2*baseline {
			return
		}
	}
	t.Errorf("sharded L10 on 2 host threads took %.2fx the serial wall time; more than 2x the per-core-goroutine baseline of %.1fx", best, baseline)
}

// TestGroupWaitLostWakeup forces every idle pass of every group to park at
// once (park budget zero), so each window slide, global-time advance and
// reply push races a group going to sleep, and makes the manager role's
// park untimed, so a clock publication that fails to bump the activity
// epoch is not covered by the park's timeout. The edge rendezvous's spin is
// zero too, so every group that arrives before the K-th parks, racing the
// K-th's release. A lost wake-up of any kind hangs the run; each row runs
// under a deadline that interrupts it and fails the row. The K = 1 rows
// cover the lone group that hosts the sharded round and, on the remote
// backend, blocks on the wire in it and parks in the manager role until a
// reply lands; the K = 3 rows (eight cores in groups of 3, 3 and 2) put two
// waiters on every edge of the rendezvous.
func TestGroupWaitLostWakeup(t *testing.T) {
	oldBudget, oldSpin, oldFirst, oldCeil := groupParkBudget, roundSpin, mgrParkFirst, mgrParkCeil
	groupParkBudget, roundSpin, mgrParkFirst, mgrParkCeil = 0, 0, time.Hour, time.Hour
	defer func() {
		groupParkBudget, roundSpin, mgrParkFirst, mgrParkCeil = oldBudget, oldSpin, oldFirst, oldCeil
	}()
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		// The end of a run wakes nobody by itself: the MaxCycles abort
		// leaves its round before the windows move, and the group that ran
		// that round need not be the one RunParallel is waiting in.
		for _, s := range []Scheme{SchemeCC, SchemeS9} {
			cfg := smallConfig(4)
			cfg.MaxCycles = 3000
			m := mustMachine(t, "main:\n j main\n", cfg)
			if res := runUnderDeadline(t, m, 2, "parallel", s); !res.Aborted {
				t.Fatalf("%v: infinite loop did not abort", s)
			}
		}
		for _, row := range []struct {
			driver  string
			k       int
			cores   int
			schemes []Scheme
		}{
			{"parallel", 2, 4, []Scheme{SchemeCC, SchemeL10, SchemeS9, SchemeSU}},
			{"sharded", 2, 4, []Scheme{SchemeCC, SchemeL10, SchemeS9, SchemeSU}},
			{"remote", 2, 4, []Scheme{SchemeCC, SchemeL10, SchemeS9, SchemeSU}},
			{"sharded", 1, 4, []Scheme{SchemeCC, SchemeL10, SchemeS9, SchemeSU}},
			{"remote", 1, 4, []Scheme{SchemeCC, SchemeL10, SchemeS9, SchemeSU}},
			{"parallel", 3, 8, []Scheme{SchemeCC, SchemeL10, SchemeS9x}},
			{"sharded", 3, 8, []Scheme{SchemeCC, SchemeL10, SchemeS9x}},
		} {
			for _, s := range row.schemes {
				cfg, run := driverConfig(row.driver, row.cores)
				m := mustMachine(t, threadsProg, cfg)
				if res := runUnderDeadline(t, m, row.k, run, s); res.Output != expectTotal(row.cores) {
					t.Fatalf("%s K=%d %v: output %q", row.driver, row.k, s, res.Output)
				}
			}
		}
	}
}

// TestEdgeRendezvousRoundCount holds a conservative run at K = 2 to ROADMAP
// item 3's target of at most 1.2 manager rounds per simulated cycle: the
// groups meet at each window edge and the last to arrive runs one round
// there (CC's window is one cycle, so every cycle is an edge). One round in
// 64 is timed, so the count of a round-phase histogram times 64 is the
// round count; every cycle advances the global time once. Racing for the
// manager role after every pass took about three rounds a cycle.
func TestEdgeRendezvousRoundCount(t *testing.T) {
	prog, w := oceanProg(t, 1)
	m := paperMachine(t, prog, w, 1, 1)
	reg := metrics.NewRegistry()
	m.EnableMetrics(reg)
	var res *Result
	withGOMAXPROCS(2, func() { res = runDriver(t, m, "parallel", SchemeCC) })
	if res.Groups != 2 {
		t.Fatalf("ran %d groups, want 2", res.Groups)
	}
	rounds := reg.Histogram("engine.round.min_ns").Count() * 64
	advances := reg.Counter("engine.global.advances").Value()
	t.Logf("%d rounds (sampled) for %d global-time advances", rounds, advances)
	if advances == 0 || rounds*10 > advances*12 {
		t.Fatalf("%d rounds for %d global-time advances: more than 1.2 a cycle", rounds, advances)
	}
}

// lostWakeupDeadline is how long a TestGroupWaitLostWakeup row may run:
// about a thousand times what one takes under the race detector on two
// host threads.
const lostWakeupDeadline = 30 * time.Second

// runUnderDeadline runs m under s on the named driver at K = k (runDriver),
// failing the test if it is still running after lostWakeupDeadline: the
// deadline interrupts it, which is the only way a run whose wake-up was
// lost ever ends.
func runUnderDeadline(t *testing.T, m *Machine, k int, driver string, s Scheme) *Result {
	t.Helper()
	what := fmt.Sprintf("%s K=%d %v (ManagerShards %d)", driver, k, s, m.cfg.ManagerShards)
	logged := make(chan struct{})
	deadline := time.AfterFunc(lostWakeupDeadline, func() {
		defer close(logged)
		// Atomics only: the run's goroutines are still going. (Groups past
		// the run's K read 0.)
		flags := make([]int32, len(m.groups))
		for k := range flags {
			flags[k] = m.groups[k].waiting.Load()
		}
		meet := m.meet.v.Load()
		t.Logf("%s: edge %d, manager parked %d, group park flags %b, rendezvous generation %d with %d arrived, %+v",
			what, m.edge.v.Load(), m.mgrParked.Load(), flags, meet>>32, uint32(meet), m.LiveSnapshot())
		m.Interrupt()
	})
	var res *Result
	withGOMAXPROCS(k, func() { res = runDriver(t, m, driver, s) })
	if !deadline.Stop() {
		<-logged
		t.Fatalf("%s: still running after %v, interrupted: a lost wake-up", what, lostWakeupDeadline)
	}
	return res
}

// TestFrozenMemberWakesOnOwnReply checks the demultiplexed wake: two cores
// share one group's rings, and a frozen member must ignore a reply for its
// sibling — its turn does not move it and the group may still park for an
// event — and become runnable on a reply of its own. A wake test weakened
// to "the group's rings hold something" fails both of the first checks.
func TestFrozenMemberWakesOnOwnReply(t *testing.T) {
	m := mustMachine(t, sumProg, smallConfig(2))
	m.beginRun(SchemeSU, 1)
	g := &m.groups[0]
	frozen, sib := &g.members[0], &g.members[1]
	m.setWait(frozen, memberFrozen)
	sib.pinned = true // the group's runnability is then the frozen member's
	pace := corePacing{critical: m.cfg.Cache.CriticalLatency(), shared: true}
	reply := func(core int) {
		m.pushReply(core, event.Event{Kind: event.KInv, Core: int32(core), Time: 1})
	}

	reply(1)
	if m.coreTurn(g, frozen, pace, 0, m.edge.v.Load()) || frozen.wait.Load() != memberFrozen {
		t.Fatal("a reply for core 1 unfroze core 0's turn")
	}
	reply(1)
	if ok, need := m.groupRunnable(g, pace); ok || need != waitEvent {
		t.Fatalf("with only core 1's replies queued: runnable=%v need=%b, want false and waitEvent", ok, need)
	}
	if len(sib.inbox) != 2 || len(frozen.inbox) != 0 {
		t.Fatalf("demux misrouted: core 1 has %d events, core 0 has %d", len(sib.inbox), len(frozen.inbox))
	}

	reply(0)
	if ok, _ := m.groupRunnable(g, pace); !ok {
		t.Fatal("core 0's own reply left the group unrunnable")
	}
}

// bareMachine builds a Machine with just the pacing state and event rings
// the global-time and fabric tests exercise — no cores, no kernel, no cache
// hierarchy. Like a fresh NewMachine, each core is a group of one until
// groupBare runs.
func bareMachine(n, ringCap int) *Machine {
	m := &Machine{
		coreSlots:   ringCap,
		local:       make([]padded, n),
		blocked:     make([]atomic.Int64, n),
		resumeFloor: make([]atomic.Int64, n),
		members:     make([]member, n),
		groups:      make([]coreGroup, n),
		groupOf:     make([]*coreGroup, n),
		mgrWake:     make(chan struct{}, 1),
	}
	groupBare(m, n)
	return m
}

// groupBare splits a bare machine's cores into k contiguous groups of
// ceil(n/k) with their rings, as formGroups does (k = 3 is uneven for most
// n).
func groupBare(m *Machine, k int) {
	n := len(m.local)
	per := (n + k - 1) / k
	m.nGroups = 0
	for lo := 0; lo < n; lo += per {
		m.groups[m.nGroups].members = m.members[lo:min(lo+per, n)]
		m.nGroups++
	}
	for i := range m.members {
		m.members[i].id, m.groupOf[i] = i, &m.groups[i/per]
	}
	m.makeFabric()
}

// TestFabricRace drives the event fabric from its three ends at once. One
// producer goroutine per group pushes each member's numbered requests into
// the group's OutQ, as the members' Send does; the manager drains every
// OutQ (drainOutQs) and answers each request into its group's InQ, as
// pushReply does; one goroutine per group demultiplexes its InQ into the
// members' inboxes (demux). Every core must get exactly its own events,
// once each and in order, and be marked arrived. Cases: one group, three
// uneven groups, and 70 cores in two groups. Run under -race in CI.
func TestFabricRace(t *testing.T) {
	const perCore = 300
	for _, tc := range []struct{ n, k int }{{8, 1}, {8, 3}, {70, 2}} {
		t.Run(fmt.Sprintf("cores=%d/groups=%d", tc.n, tc.k), func(t *testing.T) {
			m := bareMachine(tc.n, 4)
			groupBare(m, tc.k)
			var wg sync.WaitGroup
			for k := 0; k < m.nGroups; k++ {
				g := &m.groups[k]
				wg.Add(2)
				go func() { // the members' requests, round-robin
					defer wg.Done()
					for seq := 0; seq < perCore; seq++ {
						for j := range g.members {
							ev := event.Event{Core: int32(g.members[j].id), Time: int64(seq), Seq: int64(seq)}
							for !g.outQ.Push(ev) {
								runtime.Gosched() // ring full: wait for the manager
							}
							m.bumpMgrEpoch()
						}
					}
				}()
				go func() { // the group's demux, until every reply is in
					defer wg.Done()
					for want, got := len(g.members)*perCore, 0; got < want; {
						m.demux(g)
						got = 0
						for j := range g.members {
							got += len(g.members[j].inbox)
						}
						runtime.Gosched()
					}
				}()
			}
			for answered := 0; answered < tc.n*perCore; {
				m.drainOutQs(func(ev event.Event) {
					for !m.groupOf[ev.Core].inQ.Push(ev) {
						runtime.Gosched() // InQ full: wait for the demux
					}
					answered++
				})
			}
			wg.Wait()
			for k := 0; k < m.nGroups; k++ {
				if m.groups[k].hasEvents() || m.groups[k].outQ.Len() != 0 {
					t.Fatalf("group %d: events left in its rings", k)
				}
			}
			for i := range m.members {
				mb := &m.members[i]
				if len(mb.inbox) != perCore || !mb.arrived {
					t.Fatalf("core %d: %d events (arrived=%v), want %d", i, len(mb.inbox), mb.arrived, perCore)
				}
				for seq, ev := range mb.inbox {
					if int(ev.Core) != i || ev.Seq != int64(seq) {
						t.Fatalf("core %d: event %d is core %d seq %d", i, seq, ev.Core, ev.Seq)
					}
				}
			}
		})
	}
}

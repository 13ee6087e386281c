package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"slacksim/internal/event"
)

// bareMachine builds a Machine with just the pacing state and event rings
// the min-tree and fabric tests exercise — no cores, no kernel, no cache
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
		lt:          new(minTree),
		mgrWake:     make(chan struct{}, 1),
	}
	groupBare(m, n)
	return m
}

// groupBare splits a bare machine's cores into k contiguous groups of
// ceil(n/k) with their rings, as formGroups does (k = 3 is uneven for most
// n), and sizes the tree to them, as beginRun does.
func groupBare(m *Machine, k int) {
	n := len(m.local)
	per := (n + k - 1) / k
	m.nGroups = 0
	for lo := 0; lo < n; lo += per {
		m.groups[m.nGroups].members, m.groups[m.nGroups].leaf = m.members[lo:min(lo+per, n)], m.nGroups
		m.nGroups++
	}
	for i := range m.members {
		m.members[i].id, m.groupOf[i] = i, &m.groups[i/per]
	}
	m.makeFabric()
	m.sizeTree(m.nGroups)
}

// minLocal is the reference oracle the min-tree replaced: the naive O(N)
// scan of every core's clock, returning the minimum and the lowest-numbered
// core that holds it (the current global time and -1 when every core is
// blocked).
func (m *Machine) minLocal() (int64, int) {
	lo, at := int64(-1), -1
	for i := range m.local {
		if m.blocked[i].Load() != 0 {
			continue
		}
		v := m.local[i].v.Load()
		// A core granted out of a blocking wait counts at its resume time
		// until its (possibly still frozen) clock catches up.
		if f := m.resumeFloor[i].Load(); f > v {
			v = f
		}
		if at < 0 || v < lo {
			lo, at = v, i
		}
	}
	if at < 0 {
		return m.global.Load(), -1
	}
	return lo, at
}

// scanMin is the reference scan's global-time candidate alone.
func scanMin(m *Machine) int64 {
	v, _ := m.minLocal()
	return v
}

// blockCore and grantCore are the manager's two leaf transitions, as
// processSyscall and kernel.Notify make them.
func blockCore(m *Machine, i int) {
	m.blocked[i].Store(1)
	m.refreshLeaf(m.groupOf[i], true)
}

func grantCore(m *Machine, i int, floor int64) {
	m.resumeFloor[i].Store(floor)
	m.blocked[i].Store(0)
	m.refreshLeaf(m.groupOf[i], true)
}

// applyMinTreeOp decodes one operation against core i from two bytes and
// applies it through the same entry points the engine uses.
func applyMinTreeOp(m *Machine, i int, op, arg byte) {
	switch op % 4 {
	case 0: // core publishes a (monotone) local-clock advance
		m.publishLocal(i, m.local[i].v.Load()+int64(arg))
	case 1: // manager blocks the core in the kernel
		blockCore(m, i)
	case 2: // manager grants the core out of a blocking wait
		grantCore(m, i, m.local[i].v.Load()+int64(arg))
	case 3: // global time advances (feeds the all-blocked fallback)
		if g := m.global.Load() + int64(arg); g > m.global.Load() {
			m.global.Store(g)
		}
	}
}

// groupCounts are the group counts the tests run every core count at: one
// lone group, three uneven ones, and a group per core.
func groupCounts(n int) []int { return []int{1, min(3, n), n} }

// checkQuiescent asserts, with no writer running, that every leaf is its
// group's minimum and that globalMin agrees with the reference scan on both
// the value and the holding core.
func checkQuiescent(t *testing.T, m *Machine, what string) {
	t.Helper()
	for k := 0; k < m.nGroups; k++ {
		if got, want := m.lt.leaf(k), groupScan(m, &m.groups[k]); got != want {
			t.Fatalf("%s: leaf %d = %d, its members' minimum is %d", what, k, got, want)
		}
	}
	got, gotAt := m.globalMin(true)
	if want, wantAt := m.minLocal(); got != want || gotAt != wantAt {
		t.Fatalf("%s: globalMin=%d held by %d, minLocal scan=%d held by %d", what, got, gotAt, want, wantAt)
	}
}

// groupScan is the reference for one leaf: the minimum over g's members of
// max(local, floor), blocked members excluded.
func groupScan(m *Machine, g *coreGroup) int64 {
	lo := int64(minTreeInf)
	for k := range g.members {
		if i := g.members[k].id; m.blocked[i].Load() == 0 {
			lo = min(lo, max(m.local[i].v.Load(), m.resumeFloor[i].Load()))
		}
	}
	return lo
}

// TestMinTreeMatchesScanSequential drives random publish/block/grant
// sequences through the engine entry points and checks the tree-backed
// globalMin against the naive minLocal reference after every operation.
func TestMinTreeMatchesScanSequential(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 9, 64, 65} {
		for _, k := range groupCounts(n) {
			rng := rand.New(rand.NewSource(int64(n*k) * 7919))
			m := bareMachine(n, 8)
			groupBare(m, k)
			for step := 0; step < 4000; step++ {
				applyMinTreeOp(m, rng.Intn(n), byte(rng.Intn(4)), byte(rng.Intn(256)))
				checkQuiescent(t, m, fmt.Sprintf("n=%d K=%d step=%d", n, k, step))
			}
		}
	}
}

// TestMinTreeAllBlockedFallback checks the sentinel path: when every core is
// asleep in the kernel the root is +inf and globalMin falls back to the
// current global time, exactly like minLocal's empty-scan fallback.
func TestMinTreeAllBlockedFallback(t *testing.T) {
	m := bareMachine(4, 8)
	groupBare(m, 2)
	for i := 0; i < 4; i++ {
		m.publishLocal(i, int64(100+i))
		blockCore(m, i)
	}
	if m.lt.root() != minTreeInf {
		t.Fatalf("all cores blocked, root = %d, want sentinel", m.lt.root())
	}
	m.global.Store(4242)
	if got, at := m.globalMin(true); got != 4242 || at != -1 {
		t.Fatalf("all-blocked globalMin = %d held by %d, want current global 4242 held by none", got, at)
	}
	if want, at := m.minLocal(); want != 4242 || at != -1 {
		t.Fatalf("fallback disagrees with scan: 4242 vs %d held by %d", want, at)
	}
	// One core granted back: the floor, not the frozen clock, must win.
	grantCore(m, 2, 9000)
	if got, at := m.globalMin(true); got != 9000 || at != 2 {
		t.Fatalf("granted core counts at resume floor: got %d held by %d, want 9000 held by 2", got, at)
	}
}

// runGroupedRace is the race-closure property both the concurrent test and
// the fuzz target check. One goroutine per group publishes monotone clocks
// for its members in turn, pubs[k] holding group k's clock steps, while the
// calling goroutine — the manager — applies mgr: blocks and grants of
// members whose siblings keep publishing. After every grant it asserts the
// protocol's promise (mintree.go): globalMin is at most the granted core's
// max(local, floor), so the global time cannot pass a core about to resume.
// After the join, a quiescent point, the tree must agree with the scan.
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
		got, _ := m.globalMin(false)
		if bound := max(m.local[i].v.Load(), m.resumeFloor[i].Load()); got > bound {
			t.Errorf("grant %d of core %d: globalMin=%d passes its max(local, floor)=%d", j/2, i, got, bound)
			break
		}
	}
	wg.Wait()
	checkQuiescent(t, m, "after the join")
}

// TestMinTreeConcurrentAgreesWithScan runs runGroupedRace at K = 1, 3
// (uneven) and N on 16 cores. Run under -race in CI.
func TestMinTreeConcurrentAgreesWithScan(t *testing.T) {
	const n = 16
	for round := 0; round < 8; round++ {
		for _, k := range groupCounts(n) {
			rng := rand.New(rand.NewSource(int64(round*n + k)))
			m := bareMachine(n, 8)
			groupBare(m, k)
			pubs := make([][]int64, k)
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

// FuzzMinTreeMatchesScan runs runGroupedRace on op streams: the first byte
// picks K, the rest alternates a publish step (to the group it names) with
// a manager block or grant.
func FuzzMinTreeMatchesScan(f *testing.F) {
	f.Add([]byte{0, 0, 10, 1, 0, 2, 5})
	f.Add([]byte{1, 1, 0, 1, 0, 1, 0, 3, 100})
	f.Add([]byte{2, 0, 255, 2, 255, 0, 1, 3, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 5
		if len(ops) == 0 {
			return
		}
		k := groupCounts(n)[int(ops[0])%3]
		m := bareMachine(n, 8)
		groupBare(m, k)
		pubs := make([][]int64, m.nGroups)
		var mgr []byte
		for j := 1; j+3 < len(ops); j += 4 {
			g := int(ops[j]) % m.nGroups
			pubs[g] = append(pubs[g], int64(ops[j+1]))
			mgr = append(mgr, ops[j+2], ops[j+3])
		}
		runGroupedRace(t, m, pubs, mgr)
	})
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

// TestQuantumBarrierCrossedByJump is the regression test for the unified
// barrier detection. Batched stepping can move the global time across a
// quantum boundary without ever landing on a multiple of the window; the old
// managerLoop check (g%Window == 0) never fires on such a trajectory and the
// barrier's processing is skipped — under the new rounding-down detection the
// barrier is found the moment the global time passes it.
func TestQuantumBarrierCrossedByJump(t *testing.T) {
	const window = 10
	// A global-time trajectory that jumps 7..23: it crosses the boundaries
	// at 10 and 20 without ever equalling a multiple of the window.
	trajectory := []int64{7, 13, 23}

	oldFired, newBarrier := false, int64(0)
	lastBarrier := int64(0)
	for _, g := range trajectory {
		if g > 0 && g%window == 0 { // the pre-unification managerLoop check
			oldFired = true
		}
		if allowed := quantumBarrier(g, window); allowed > 0 && allowed > lastBarrier {
			lastBarrier = allowed
			newBarrier = allowed
		}
	}
	if oldFired {
		t.Fatal("old g%Window==0 check fired on a boundary-jumping trajectory; test is vacuous")
	}
	if newBarrier != 20 {
		t.Fatalf("unified detection found barrier %d, want 20 (last boundary below 23)", newBarrier)
	}
	// (The rounding arithmetic itself — off-multiple, below the first
	// boundary, exactly on one — is tabled in TestVisibleBound.)
}

// leaf returns leaf i's current value.
func (t *minTree) leaf(i int) int64 { return t.nodes[t.base+i].v.Load() }

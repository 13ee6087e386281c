package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"slacksim/internal/event"
)

// bareMachine builds a Machine with just the pacing state the min-tree and
// dirty-set tests exercise — no cores, no kernel, no cache hierarchy.
func bareMachine(n, ringCap int) *Machine {
	m := &Machine{
		local:       make([]padded, n),
		blocked:     make([]padded, n),
		resumeFloor: make([]padded, n),
		lt:          newMinTree(n),
		outQ:        make([]*event.Ring, n),
		outDirty:    make([]paddedU64, (n+63)/64),
		notifyPend:  make([]uint64, (n+63)/64),
		mgrWake:     make(chan struct{}, 1),
	}
	for i := range m.outQ {
		m.outQ[i] = event.NewRing(ringCap)
	}
	return m
}

// applyMinTreeOp decodes one operation against core i from two bytes and
// applies it through the same entry points the engine uses. Shared by the
// property test and the fuzz target.
func applyMinTreeOp(m *Machine, i int, op, arg byte) {
	switch op % 4 {
	case 0: // core publishes a (monotone) local-clock advance
		m.publishLocal(i, m.local[i].v.Load()+int64(arg))
	case 1: // manager blocks the core in the kernel
		m.blocked[i].v.Store(1)
		m.refreshMinLeaf(i)
	case 2: // manager grants the core out of a blocking wait
		m.resumeFloor[i].v.Store(m.local[i].v.Load() + int64(arg))
		m.blocked[i].v.Store(0)
		m.refreshMinLeaf(i)
	case 3: // global time advances (feeds the all-blocked fallback)
		if g := m.global.Load() + int64(arg); g > m.global.Load() {
			m.global.Store(g)
		}
	}
}

// scanMin is the reference scan's global-time candidate alone.
func scanMin(m *Machine) int64 {
	v, _ := m.minLocal()
	return v
}

// TestMinTreeMatchesScanSequential drives random publish/block/grant
// sequences through the engine entry points and checks the tree-backed
// globalMin against the naive minLocal reference after every operation.
func TestMinTreeMatchesScanSequential(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 9, 64, 65} {
		rng := rand.New(rand.NewSource(int64(n) * 7919))
		m := bareMachine(n, 8)
		for step := 0; step < 4000; step++ {
			applyMinTreeOp(m, rng.Intn(n), byte(rng.Intn(4)), byte(rng.Intn(256)))
			got, gotAt := m.globalMin(true)
			if want, wantAt := m.minLocal(); got != want || gotAt != wantAt {
				t.Fatalf("n=%d step=%d: globalMin=%d held by %d, minLocal scan=%d held by %d", n, step, got, gotAt, want, wantAt)
			}
		}
	}
}

// TestMinTreeAllBlockedFallback checks the sentinel path: when every core is
// asleep in the kernel the root is +inf and globalMin falls back to the
// current global time, exactly like minLocal's empty-scan fallback.
func TestMinTreeAllBlockedFallback(t *testing.T) {
	m := bareMachine(4, 8)
	for i := 0; i < 4; i++ {
		m.publishLocal(i, int64(100+i))
		m.blocked[i].v.Store(1)
		m.refreshMinLeaf(i)
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
	m.resumeFloor[2].v.Store(9000)
	m.blocked[2].v.Store(0)
	m.refreshMinLeaf(2)
	if got, _ := m.globalMin(false); got != 9000 {
		t.Fatalf("granted core counts at resume floor: got %d, want 9000", got)
	}
}

// TestMinTreeConcurrentAgreesWithScan is the race-closure property test: one
// goroutine per core hammers monotone publishLocal while a "manager"
// goroutine concurrently flips blocked flags and resume floors on random
// cores (the exact write race refreshMinLeaf's store-then-verify closes).
// After the join — a quiescent point — the root must equal the naive scan.
// Run under -race in CI.
func TestMinTreeConcurrentAgreesWithScan(t *testing.T) {
	const n = 16
	for round := 0; round < 8; round++ {
		m := bareMachine(n, 8)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				local := int64(0)
				for k := 0; k < 2000; k++ {
					local += int64(k%7) + 1
					m.publishLocal(i, local)
				}
			}(i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(round)))
			for k := 0; k < 2000; k++ {
				i := rng.Intn(n)
				if k%3 == 0 {
					m.blocked[i].v.Store(1)
					m.refreshMinLeaf(i)
				} else {
					m.resumeFloor[i].v.Store(int64(rng.Intn(5000)))
					m.blocked[i].v.Store(0)
					m.refreshMinLeaf(i)
				}
			}
			// Leave every core unblocked so the final minimum is non-trivial.
			for i := 0; i < n; i++ {
				m.blocked[i].v.Store(0)
				m.refreshMinLeaf(i)
			}
		}()
		wg.Wait()
		if got, want := m.lt.root(), scanMin(m); got != want {
			t.Fatalf("round %d: quiescent root=%d, scan=%d", round, got, want)
		}
		for i := 0; i < n; i++ {
			if got, want := m.lt.leaf(i), m.minLeafVal(i); got != want {
				t.Fatalf("round %d: leaf %d=%d, pacing atomics say %d", round, i, got, want)
			}
		}
	}
}

// FuzzMinTreeMatchesScan feeds arbitrary op streams through the engine entry
// points; the tree must agree with the reference scan after every single op.
func FuzzMinTreeMatchesScan(f *testing.F) {
	f.Add([]byte{0, 10, 1, 0, 2, 5})
	f.Add([]byte{1, 0, 1, 0, 1, 0, 3, 100})
	f.Add([]byte{0, 255, 2, 255, 0, 1, 3, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 5
		m := bareMachine(n, 8)
		for k := 0; k+1 < len(ops); k += 2 {
			applyMinTreeOp(m, int(ops[k]>>2)%n, ops[k], ops[k+1])
			got, gotAt := m.globalMin(true)
			if want, wantAt := m.minLocal(); got != want || gotAt != wantAt {
				t.Fatalf("op %d: globalMin=%d held by %d, minLocal=%d held by %d", k/2, got, gotAt, want, wantAt)
			}
		}
	})
}

// TestDirtyDrainNoStranding is the dirty-set ordering test: concurrent
// producers push through the engine's store-then-mark sequence while the
// consumer repeatedly swap-drains; every pushed event must reach the GQ —
// none stranded in a ring whose dirty bit was consumed by an earlier swap.
// Run under -race in CI.
func TestDirtyDrainNoStranding(t *testing.T) {
	const (
		n       = 70 // spans two dirty words
		perCore = 300
	)
	m := bareMachine(n, 16)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < perCore; k++ {
				for !m.outQ[i].Push(event.Event{Core: int32(i), Time: int64(k)}) {
					runtime.Gosched() // ring full: wait for the drainer
				}
				m.markOutDirty(i)
				m.bumpMgrEpoch()
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		m.drainDirty(m.gq.Push)
		select {
		case <-done:
			// Producers finished: one more dirty drain picks up every bit set
			// after the last swap; the full-scan fallback then cross-checks
			// that the dirty protocol left nothing behind.
			m.drainDirty(m.gq.Push)
			if m.drainAll(m.gq.Push) {
				t.Fatal("full-scan drain found events the dirty-set drain left stranded")
			}
			if m.gq.Len() != n*perCore {
				t.Fatalf("GQ has %d events, want %d", m.gq.Len(), n*perCore)
			}
			return
		default:
		}
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

// leaf returns leaf i's current value (tests and forensics).
func (t *minTree) leaf(i int) int64 { return t.nodes[t.base+i].v.Load() }

// update is the one-call form: set leaf i to v and rebuild its path to the
// root. The engine goes through Machine.refreshMinLeaf, which derives v
// from the pacing atomics.
func (t *minTree) update(i int, v int64) {
	t.setLeaf(i, v)
	t.propagate(i)
}

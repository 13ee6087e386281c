package core

import "math"

// This file is the manager-scalability core of PR 4: a cache-line-aware
// tournament min-tree over the per-core effective local times. The old
// manager recomputed the global time by scanning all N per-core clock
// atomics every round (minLocal), touching N contended cache lines even
// when nothing had changed. With the tree, a core updates its own leaf on
// local-time publication — O(log N) stores, and only when its clock
// actually moved — and the manager reads the root in O(1). The per-round
// manager cost becomes proportional to activity, not core count.
//
// Leaf semantics mirror minLocal exactly: a core asleep in a blocking
// system call contributes the +inf sentinel (excluded from the minimum);
// otherwise it contributes max(local, resumeFloor), so a core granted out
// of a blocking wait counts at its resume time until its frozen clock
// catches up. When every leaf is the sentinel the root is the sentinel and
// the caller falls back to the current global time (all-blocked workload
// deadlock; the watchdog handles it).
//
// Concurrency: leaves are written by their owning core goroutine (clock
// publication) and by the manager goroutine (blocked/resumeFloor
// transitions); internal nodes are recomputed by whichever updater passes
// through. Every node write uses a store-then-verify loop: store the min
// of the children, re-read the children, and repeat if they changed. With
// Go's sequentially consistent atomics this makes the tree eventually
// exact after any quiescent point: consider the last store to a node in
// the total order of atomic operations — either its writer read both
// children's final values, or a child changed after that read, and the
// child's updater (which always stores the parent after storing the
// child) would have produced a later parent store, a contradiction. The
// property/fuzz test (mintree_test.go) checks the tree against the naive
// minLocal scan under concurrent publishes, blocked flips and floor
// updates, with and without the race detector.
//
// All nodes are padded to a cache line (the padded type), so a core
// hammering its leaf never false-shares with a sibling's leaf, and the
// frequently-read root sits alone on its line.

// minTreeInf is the blocked-core sentinel: such cores never win the
// tournament, exactly as minLocal's skip of blocked cores.
const minTreeInf = math.MaxInt64

// minTree is a 1-based implicit binary tree: nodes[1] is the root, leaves
// occupy nodes[base : base+n], and unused leaves hold the sentinel.
type minTree struct {
	n     int
	base  int
	nodes []padded
}

func newMinTree(n int) *minTree {
	base := 1
	for base < n {
		base <<= 1
	}
	t := &minTree{n: n, base: base, nodes: make([]padded, 2*base)}
	for i := range t.nodes {
		t.nodes[i].v.Store(minTreeInf)
	}
	for i := 0; i < n; i++ {
		t.nodes[base+i].v.Store(0)
	}
	for idx := base - 1; idx >= 1; idx-- {
		t.nodes[idx].v.Store(min(t.nodes[2*idx].v.Load(), t.nodes[2*idx+1].v.Load()))
	}
	return t
}

// root returns the current tournament minimum (minTreeInf when every live
// leaf is blocked). O(1): a single atomic load.
func (t *minTree) root() int64 { return t.nodes[1].v.Load() }

// setLeaf stores leaf i without propagating (callers follow with
// propagate; split so the machine's leaf refresh can store-then-verify
// against the pacing atomics before paying for the upward pass).
func (t *minTree) setLeaf(i int, v int64) { t.nodes[t.base+i].v.Store(v) }

// propagate recomputes every ancestor of leaf i with the store-then-verify
// loop described above. O(log n) on the quiet path; a handful of extra
// iterations under contention.
func (t *minTree) propagate(i int) {
	for idx := (t.base + i) >> 1; idx >= 1; idx >>= 1 {
		for {
			v := min(t.nodes[2*idx].v.Load(), t.nodes[2*idx+1].v.Load())
			t.nodes[idx].v.Store(v)
			if min(t.nodes[2*idx].v.Load(), t.nodes[2*idx+1].v.Load()) == v {
				break
			}
		}
	}
}

// argmin walks from the root toward the leaf that (currently) holds the
// tournament minimum and returns its index in [0, n). Under concurrent
// updates the walk is advisory — a child may change between the read that
// chose it and the next level — which is exactly the accuracy straggler
// attribution needs: the manager charges the round to whichever core's
// leaf held the root at the moment it looked. Returns -1 when the root is
// the all-blocked sentinel.
func (t *minTree) argmin() int {
	if t.root() == minTreeInf {
		return -1
	}
	idx := 1
	for idx < t.base {
		l, r := t.nodes[2*idx].v.Load(), t.nodes[2*idx+1].v.Load()
		if r < l {
			idx = 2*idx + 1
		} else {
			idx = 2 * idx
		}
	}
	if i := idx - t.base; i < t.n {
		return i
	}
	// A concurrent update steered the walk into the unused sentinel
	// padding; clamp to the last live core rather than report nonsense.
	return t.n - 1
}

// minLeafVal computes core i's effective local time from the pacing
// atomics — the value its tree leaf must converge to. Identical to one
// iteration of the reference minLocal scan.
func (m *Machine) minLeafVal(i int) int64 {
	if m.blocked[i].v.Load() != 0 {
		return minTreeInf
	}
	v := m.local[i].v.Load()
	if f := m.resumeFloor[i].v.Load(); f > v {
		v = f
	}
	return v
}

// refreshMinLeaf re-derives core i's leaf from the pacing atomics and
// propagates. The store-then-verify loop at the leaf closes the race
// between a core publishing its clock and the manager flipping the same
// core's blocked flag: whichever write lands last in the total atomic
// order re-reads the inputs after its store and either confirms the leaf
// or fixes it, and then propagates to the root. Without the verify, a
// stale max(local, floor) could overwrite the blocked sentinel and wedge
// the global time on a frozen clock (the deadlock blocked-exclusion
// exists to prevent).
func (m *Machine) refreshMinLeaf(i int) {
	for {
		v := m.minLeafVal(i)
		m.lt.setLeaf(i, v)
		if m.minLeafVal(i) == v {
			break
		}
	}
	m.lt.propagate(i)
}

// publishLocal publishes core i's local clock: the authoritative per-core
// atomic (read by forensics, audits and the reference scan), the tree
// leaf, and the manager wake epoch. Called from the owning core goroutine
// at batch boundaries, fast-forwards and injected clock warps — already
// amortised sites, so the O(log N) leaf path replaces the manager's
// every-round O(N) scan at no per-cycle cost.
func (m *Machine) publishLocal(i int, v int64) {
	m.local[i].v.Store(v)
	if !m.fused { // a single runner has no tree to feed, no manager to wake
		m.refreshMinLeaf(i)
		m.bumpMgrEpoch()
	}
}

// globalMin returns the manager's global-time candidate: the tree root,
// or the current global time unchanged when every live core is blocked in
// the kernel (minLocal's all-blocked fallback).
func (m *Machine) globalMin() int64 {
	if m.fused {
		return m.minLocal()
	}
	if v := m.lt.root(); v != minTreeInf {
		return v
	}
	return m.global.Load()
}

// minLocal is the naive O(N) scan the min-tree replaced. It remains the
// reference oracle — the property test cross-checks the tree root against
// it at every quiescent point — and it is the fused driver's global-time
// candidate: a single runner publishes to no tree, and scanning the clocks
// it just stored is cheaper than maintaining one.
func (m *Machine) minLocal() int64 {
	lo := int64(-1)
	for i := range m.local {
		if m.blocked[i].v.Load() != 0 {
			continue
		}
		v := m.local[i].v.Load()
		// A core granted out of a blocking wait counts at its resume time
		// until its (possibly still frozen) clock catches up.
		if f := m.resumeFloor[i].v.Load(); f > v {
			v = f
		}
		if lo < 0 || v < lo {
			lo = v
		}
	}
	if lo < 0 {
		return m.global.Load()
	}
	return lo
}

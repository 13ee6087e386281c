package core

import (
	"math"
	"sync"
	"sync/atomic"
)

// This file is the manager's global-time candidate (§2.1): a cache-line-
// padded tournament min-tree with one leaf per core group (group.go), the
// unit that runs cores and so the unit that publishes a clock. The manager
// reads the root in O(1).
//
// Leaf k is the minimum over group k's members of their effective local
// times (groupMin): +inf for a core asleep in a blocking system call,
// otherwise max(local, resumeFloor), so a core granted out of a blocking
// wait counts at its resume time until its frozen clock catches up. An
// all-+inf root leaves the global time where it is (an all-blocked
// deadlock, which the watchdog handles). The per-core atomics (local,
// blocked, resumeFloor) are the inputs, and the mirrors the auditor,
// forensics, /slack and the trace hook read.
//
// Writers. A refresh recomputes a leaf and its holder — the highest-
// numbered member at the minimum, in a round-robin the last of a tie to
// move — and rebuilds the path to the root, all under the tree's mutex;
// readers take no lock. The group goroutine refreshes after storing a
// member's clock only if the member is the holder or lands at or below the
// leaf (publishLocal): about once per pass, even when every member stands
// at the same cycle, as under CC. The manager refreshes after every blocked
// or resume-floor store (processSyscall, kernel.Notify), re-reading the
// atomics after its store until they agree.
//
// Protocol. Sibling members keep publishing while one is blocked, so
// without the lock a group refresh computed before a grant could land
// after the manager's and hide the grant's resume floor — as could another
// group's path rebuild, since internal nodes are shared — and the global
// time could pass a core about to resume, which would then inject events
// into the manager's past. With every store computed under the lock:
//
//  1. When the manager's grant refresh returns, the root is at most the
//     granted core's max(local, floor), and nothing raises it past that
//     before the core's own clock does.
//  2. A skipped refresh loses nothing: a non-holder landing above the leaf
//     leaves the minimum with the holder, and every change to the holder's
//     inputs is followed by a refresh. The one stale leaf a group can read
//     comes from a manager refresh that read a clock before the group
//     stored it and stored the leaf after the group read it; its re-read
//     then follows the group's store, and it stores again. A group's own
//     refresh reads clocks it owns, and a manager store it misses is
//     followed by the manager's refresh.
//  3. At any quiescent point every leaf is its members' minimum and the
//     root the leaves' (mintree_test.go checks 1 and 3 against a scan).
//
// The lock is uncontended at K = 1 and taken about once per group pass.

// minTreeInf is the blocked-core sentinel: such cores never win the
// tournament.
const minTreeInf = math.MaxInt64

// minTree is a 1-based implicit binary tree: nodes[1] is the root, leaves
// occupy nodes[base : base+n], and unused leaves hold the sentinel. mu
// serialises every store; see the protocol above.
type minTree struct {
	mu    sync.Mutex
	n     int
	base  int
	nodes []treeNode
}

// treeNode is one cache line: a node's value and, in a leaf, its holder,
// which publishLocal reads with the value.
type treeNode struct {
	v      atomic.Int64
	holder atomic.Int64
	_      [6]int64
}

// reset sizes the tree to n leaves, every node the sentinel until the
// leaves are refreshed (sizeTree). It allocates only when growing, which
// only NewMachine's sizing does, so a live /slack reader of the root never
// sees the node slice change.
func (t *minTree) reset(n int) {
	t.n, t.base = n, 1
	for t.base < n {
		t.base <<= 1
	}
	if len(t.nodes) < 2*t.base {
		t.nodes = make([]treeNode, 2*t.base)
	}
	for i := range t.nodes {
		t.nodes[i].v.Store(minTreeInf)
	}
}

// sizeTree gives the min-tree one leaf per group of groups[:n] and derives
// each leaf and holder from the pacing atomics.
func (m *Machine) sizeTree(n int) {
	m.lt.reset(n)
	for k := 0; k < n; k++ {
		m.refreshLeaf(&m.groups[k], false)
	}
}

// root returns the current tournament minimum (minTreeInf when every live
// leaf is blocked). O(1): a single atomic load.
func (t *minTree) root() int64 { return t.nodes[1].v.Load() }

// set stores leaf i's holder and value, each only if it changed, and
// reports whether the value did, after rebuilding its path to the root.
// The caller holds mu, so an unchanged leaf's path is already exact.
func (t *minTree) set(i int, v int64, holder int) bool {
	n := &t.nodes[t.base+i]
	if n.holder.Load() != int64(holder) {
		n.holder.Store(int64(holder))
	}
	if n.v.Load() == v {
		return false
	}
	n.v.Store(v)
	for idx := (t.base + i) >> 1; idx >= 1; idx >>= 1 {
		t.nodes[idx].v.Store(min(t.nodes[2*idx].v.Load(), t.nodes[2*idx+1].v.Load()))
	}
	return true
}

// argmin walks from the root toward the leftmost leaf holding the minimum
// and returns its index in [0, n), or -1 when the root is the all-blocked
// sentinel. Lock-free, so a concurrent refresh can steer the walk — which is
// the accuracy straggler attribution needs: the round is charged to the
// group that held the root when the manager looked.
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
	// padding; clamp to the last live leaf rather than report nonsense.
	return t.n - 1
}

// groupMin returns the lowest effective local time, max(local, floor),
// among g's members not blocked in the kernel, and the lowest- and
// highest-numbered members holding it (minTreeInf and -1: all blocked).
func (m *Machine) groupMin(g *coreGroup) (lo int64, first, last int) {
	lo, first, last = minTreeInf, -1, -1
	for k := range g.members {
		id := g.members[k].id
		if m.blocked[id].Load() != 0 {
			continue
		}
		switch v := max(m.local[id].v.Load(), m.resumeFloor[id].Load()); {
		case v < lo:
			lo, first, last = v, id, id
		case v == lo:
			last = id
		}
	}
	return lo, first, last
}

// refreshLeaf re-derives g's leaf and holder from its members' atomics,
// under the tree's lock, and reports whether the leaf moved. A manager
// refresh (verify) repeats until a re-read after the store agrees; a
// group's own refresh cannot have read a clock older than its group's, so
// it stores once (protocol above).
func (m *Machine) refreshLeaf(g *coreGroup, verify bool) (moved bool) {
	t := m.lt
	t.mu.Lock()
	for {
		v, _, h := m.groupMin(g)
		moved = t.set(g.leaf, v, h) || moved
		if !verify {
			break
		}
		if w, _, h2 := m.groupMin(g); w == v && h2 == h {
			break
		}
	}
	t.mu.Unlock()
	return moved
}

// publishLocal publishes core i's local clock: the per-core atomic (read by
// forensics, audits and the reference scan) and, when the core is its
// group's holder or lands at or below the leaf, the group's leaf — and, if
// the leaf moved, the manager wake epoch: the root can move only then.
// Called from the group goroutine at batch boundaries, fast-forwards and
// injected clock warps.
func (m *Machine) publishLocal(i int, v int64) {
	// Address the leaf before the store: its fence then holds back only the
	// two loads, of one line, that the protocol orders after it.
	g := m.groupOf[i]
	leaf := &m.lt.nodes[m.lt.base+g.leaf]
	m.local[i].v.Store(v)
	if (leaf.holder.Load() == int64(i) || v <= leaf.v.Load()) && m.refreshLeaf(g, false) {
		m.bumpMgrEpoch()
	}
}

// globalMin returns the manager's global-time candidate — the tree root,
// or the current global time unchanged when every live core is blocked in
// the kernel — and, when attribute is set, the core that holds it (-1 when
// none): the lowest-numbered core at the minimum of the group whose leaf
// argmin finds, for straggler attribution.
func (m *Machine) globalMin(attribute bool) (int64, int) {
	held := -1
	if attribute {
		if k := m.lt.argmin(); k >= 0 {
			_, held, _ = m.groupMin(&m.groups[k])
		}
	}
	if v := m.lt.root(); v != minTreeInf {
		return v, held
	}
	return m.global.Load(), held
}

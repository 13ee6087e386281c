package core

import (
	"fmt"
	"testing"

	"slacksim/internal/event"
)

// Manager-round cost benchmarks. One round of the old manager paid an O(N)
// clock scan (BenchmarkMinLocalScan) and an O(N) ring scan regardless of
// activity; the round now pays one O(1) root read plus — per *active* core
// — an O(log K) leaf update (BenchmarkMinTree), and pops one OutQ per group
// (BenchmarkDrainOutQs). Numbers are quoted in docs/performance.md ("The
// threaded fabric").

// BenchmarkMinLocalScan measures the old per-round global-time computation:
// a scan of every core's clock/blocked/floor atomics.
func BenchmarkMinLocalScan(b *testing.B) {
	for _, n := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("cores=%d", n), func(b *testing.B) {
			m := bareMachine(n, 8)
			for i := 0; i < n; i++ {
				m.publishLocal(i, int64(1000+i))
			}
			b.ResetTimer()
			var sink int64
			for k := 0; k < b.N; k++ {
				sink = scanMin(m)
			}
			_ = sink
		})
	}
}

// BenchmarkMinTree measures the replacement round with one active core, a
// group of one as at K = N: its clock publication with the O(log N) locked
// leaf refresh, plus the manager's O(1) root read. With more than one
// active core per round the scan's cost stays O(N) while the tree's grows
// only with the number of publishers.
func BenchmarkMinTree(b *testing.B) {
	for _, n := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("cores=%d", n), func(b *testing.B) {
			m := bareMachine(n, 8)
			for i := 0; i < n; i++ {
				m.publishLocal(i, int64(1000+i))
			}
			b.ResetTimer()
			var sink int64
			for k := 0; k < b.N; k++ {
				i := k & (n - 1)
				m.publishLocal(i, int64(1000+k))
				sink = m.lt.root()
			}
			_ = sink
		})
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

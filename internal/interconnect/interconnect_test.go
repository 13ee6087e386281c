package interconnect

import (
	"testing"
	"testing/quick"
)

func TestResourceQueueing(t *testing.T) {
	r := NewResource(4)
	if got := r.Acquire(10); got != 10 {
		t.Fatalf("idle acquire = %d", got)
	}
	if got := r.Acquire(10); got != 14 {
		t.Fatalf("queued acquire = %d", got)
	}
	if got := r.Acquire(100); got != 100 {
		t.Fatalf("late acquire = %d", got)
	}
	if r.Uses() != 3 {
		t.Errorf("uses = %d", r.Uses())
	}
	if r.WaitCycles() != 4 {
		t.Errorf("wait cycles = %d", r.WaitCycles())
	}
}

// TestResourceMonotoneInOrder: with nondecreasing arrival times, service
// start times are nondecreasing and the backlog cap never fires below the
// physical bound — the property that keeps conservative schemes exact.
func TestResourceMonotoneInOrder(t *testing.T) {
	f := func(deltas []uint8) bool {
		r := NewResource(3)
		now, last := int64(0), int64(-1)
		for _, d := range deltas {
			now += int64(d % 16)
			start := r.Acquire(now)
			if start < now || start < last {
				return false
			}
			last = start
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestResourceBacklogCap: a far-future request must not poison the queue
// for an earlier-stamped request beyond the finite-buffer bound.
func TestResourceBacklogCap(t *testing.T) {
	r := NewResource(4)
	r.Acquire(1_000_000) // free := 1,000,004
	start := r.Acquire(100)
	if max := int64(100 + backlogOps*4); start > max {
		t.Fatalf("capped start = %d, want <= %d", start, max)
	}
	if start < 100 {
		t.Fatalf("start %d before arrival", start)
	}
}

func TestResourceReset(t *testing.T) {
	r := NewResource(2)
	r.Acquire(5)
	r.Acquire(5)
	r.Reset()
	if r.Uses() != 0 || r.WaitCycles() != 0 {
		t.Error("stats not reset")
	}
	if got := r.Acquire(0); got != 0 {
		t.Errorf("occupancy not reset: %d", got)
	}
}

func TestCrossbarNUCADistance(t *testing.T) {
	x := NewCrossbar(8, 8, 2, 1, 1)
	if got := x.Latency(0, 0); got != 2 {
		t.Errorf("near latency = %d", got)
	}
	if got := x.Latency(0, 7); got != 9 {
		t.Errorf("far latency = %d", got)
	}
	if got := x.Latency(7, 7); got != 2 {
		t.Errorf("corner latency = %d", got)
	}
}

func TestCrossbarBankScaling(t *testing.T) {
	// 4 cores, 8 banks: banks map onto core positions pairwise.
	x := NewCrossbar(4, 8, 2, 1, 1)
	if got := x.Latency(0, 1); got != 2 {
		t.Errorf("bank 1 maps to core 0: latency = %d", got)
	}
	if got := x.Latency(0, 7); got != 5 {
		t.Errorf("bank 7 latency = %d", got)
	}
}

func TestCrossbarPortContention(t *testing.T) {
	x := NewCrossbar(4, 4, 2, 1, 3)
	a := x.Traverse(0, 1, 10)
	b := x.Traverse(2, 1, 10) // same bank, same cycle: queues 3 cycles
	if b-a != 3 {
		t.Errorf("contended traverses: %d then %d", a, b)
	}
	c := x.Traverse(0, 2, 10) // different bank: no queueing, 2 hops away
	if c != 14 {
		t.Errorf("uncontended traverse = %d, want 10+2+2*1", c)
	}
	port := x.Ports()[1]
	if port.WaitCycles() != 3 {
		t.Errorf("port wait cycles = %d", port.WaitCycles())
	}
	x.Reset()
	if port.WaitCycles() != 0 {
		t.Error("reset did not clear port stats")
	}
}

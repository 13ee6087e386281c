// Package cpu implements the target core timing model: a NetBurst-like
// 4-wide out-of-order core (the paper's target, §2.2/§4.1 — operand values
// are read just before execution, not at dispatch). A core owns its private
// L1 instruction and data caches; everything below the L1s is reached
// through timestamped events sent to the simulation manager.
package cpu

import (
	"slacksim/internal/cache"
	"slacksim/internal/event"
	"slacksim/internal/mem"
)

// Core is the engine-facing contract of a simulated core. All methods are
// invoked by the core's own simulation thread only. OoO is its only
// implementation, and the engine calls *OoO directly; the interface remains
// because the benchmark probe under bench/ declares a Core, and its method
// docs state the contract the engine relies on.
type Core interface {
	// ID returns the target core index.
	ID() int
	// Tick simulates one target clock cycle at local time now. It must
	// never block on the host. It reports whether the cycle made any
	// progress (fetched, dispatched, issued, completed, committed, drained
	// a store, or acted on a syscall); a false return means every
	// subsequent cycle is also a no-op until either NextWork's time
	// arrives or an InQ event is delivered — which lets the engine skip
	// idle stall cycles deterministically instead of burning host time on
	// them (and keeps the optimistic schemes in the paper's regime, where
	// a stalled core observes its reply at the reply's timestamp rather
	// than host-schedule-dependent cycles later).
	Tick(now int64) bool
	// NextWork returns the earliest future local time at which the core
	// can make progress without any new InQ event (a scheduled completion,
	// a syscall retry, a redirect release), or math.MaxInt64 if only an
	// InQ event can unblock it. Meaningful right after a Tick that
	// returned false.
	NextWork(now int64) int64
	// Skip accounts n idle cycles that the engine fast-forwarded.
	Skip(n int64)
	// WaitingSyscall reports that the core has a system call in flight
	// whose reply has not arrived. Diagnostic; the engine decides how to
	// wait from the kernel's blocked-thread bookkeeping, not from this.
	WaitingSyscall() bool
	// Deliver applies an InQ event (fill, invalidation, syscall reply,
	// start/stop) at local time now.
	Deliver(ev event.Event, now int64)
	// Start activates the core: begin fetching at pc with the given stack
	// pointer and a0 argument.
	Start(pc, sp uint64, arg int64)
	// Stop halts the core; subsequent Ticks are idle.
	Stop()
	// Active reports whether the core is running a workload thread.
	Active() bool
	// Stats returns the core's counters (live; read by the harness after
	// the simulation ends).
	Stats() *Stats
	// MarkROI records the start of the measured region of interest.
	MarkROI(now int64)
}

var _ Core = (*OoO)(nil)

// Env supplies a core's connections to the rest of the machine.
type Env struct {
	ID       int
	Mem      *mem.Memory
	CacheCfg cache.Config
	// Send pushes a request onto the core's OutQ. It must not block; ring
	// capacity bounds are sized above the maximum number of outstanding
	// requests.
	Send func(event.Event)
	// TextBase and TextEnd delimit the program's static text section. Cores
	// predecode fetched instructions in this range one cache line at a time
	// (see predecode.go) instead of calling Mem.LoadWord + isa.Decode per
	// fetch. Leave both zero to disable predecoding (unit tests that build
	// cores directly).
	TextBase, TextEnd uint64
}

// Stats aggregates one core's activity.
type Stats struct {
	Cycles     int64 // cycles ticked while active
	IdleCycles int64 // cycles ticked while inactive
	Skipped    int64 // stall cycles fast-forwarded by the engine
	Committed  int64
	Fetched    int64
	Squashed   int64

	Loads      int64
	Stores     int64
	Branches   int64
	Mispred    int64
	Syscalls   int64
	Retries    int64 // blocking-syscall retry round trips
	MemFaults  int64 // committed accesses to unmapped/misaligned addresses
	Prefetches int64 // next-line prefetches issued (when enabled)

	FetchStall  int64 // cycles fetch was blocked on an I-miss
	ROBStall    int64 // dispatch cycles lost to a full ROB
	LSQStall    int64 // dispatch cycles lost to full LQ/SQ
	HeadStall   int64 // cycles the ROB head was an incomplete instruction
	SerializeOn int64 // cycles dispatch was serialised (syscall/AMO drain)

	L1D cache.L1Stats
	L1I cache.L1Stats

	OpsLoadIssue int64 // loadStep executions (incl. re-kicks)
	OpsLoadDone  int64
	OpsWB        int64
	Kicks        int64 // kickParkedLoads requeues

	ROIStartCycles    int64
	ROIStartCommitted int64
	ROIMarked         bool
}

// ROICycles returns cycles elapsed since the region of interest started.
func (s *Stats) ROICycles() int64 { return s.Cycles + s.IdleCycles - s.ROIStartCycles }

// ROICommitted returns instructions committed since the region of interest
// started.
func (s *Stats) ROICommitted() int64 { return s.Committed - s.ROIStartCommitted }

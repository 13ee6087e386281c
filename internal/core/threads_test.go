package core

import (
	"fmt"
	"testing"
)

// threadsProg spawns one worker per remaining core; every thread (including
// main) adds its id+1 into a lock-protected accumulator, synchronises at a
// barrier, and main prints the total. Exercises thread_create/exit/join,
// lock/unlock, barrier, and the shared-memory coherence path.
const threadsProg = `
.equ SYS_EXIT, 0
.equ SYS_TCREATE, 1
.equ SYS_TEXIT, 2
.equ SYS_TJOIN, 3
.equ SYS_LOCK_INIT, 4
.equ SYS_LOCK, 5
.equ SYS_UNLOCK, 6
.equ SYS_BARRIER_INIT, 7
.equ SYS_BARRIER, 8
.equ SYS_PRINT_INT, 12
.equ SYS_NCORES, 20

main:
    syscall SYS_NCORES
    mv   r16, rv            # r16 = n cores
    la   a0, lk
    syscall SYS_LOCK_INIT
    la   a0, bar
    mv   a1, r16
    syscall SYS_BARRIER_INIT

    # spawn workers with arg = tid expectation (1..n-1)
    li   r17, 1
spawn:
    bge  r17, r16, spawned
    la   a0, worker
    mv   a1, r17
    syscall SYS_TCREATE
    addi r17, r17, 1
    j    spawn
spawned:
    # main contributes id 0 -> adds 1
    li   a0, 0
    call contribute
    la   a0, bar
    syscall SYS_BARRIER
    # join workers
    li   r17, 1
join:
    bge  r17, r16, joined
    mv   a0, r17
    syscall SYS_TJOIN
    addi r17, r17, 1
    j    join
joined:
    la   r8, acc
    ld   a0, 0(r8)
    syscall SYS_PRINT_INT
    li   a0, 0
    syscall SYS_EXIT

# contribute(id): acc += id+1 under the lock
contribute:
    mv   r20, a0
    la   a0, lk
    syscall SYS_LOCK
    la   r8, acc
    ld   r9, 0(r8)
    addi r10, r20, 1
    add  r9, r9, r10
    sd   r9, 0(r8)
    la   a0, lk
    syscall SYS_UNLOCK
    ret

worker:
    # a0 = id
    mv   r21, a0
    call contribute
    la   a0, bar
    syscall SYS_BARRIER
    syscall SYS_TEXIT

.data
.align 8
lk:  .dword 0
bar: .dword 0
acc: .dword 0
`

func expectTotal(n int) string {
	total := 0
	for i := 1; i <= n; i++ {
		total += i
	}
	return fmt.Sprint(total)
}

func TestThreadsSerial(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		m := mustMachine(t, threadsProg, smallConfig(n))
		res := runSerial(t, m)
		if res.Aborted {
			t.Fatalf("n=%d: aborted at %d", n, res.EndTime)
		}
		if want := expectTotal(n); res.Output != want {
			t.Fatalf("n=%d: output = %q, want %q", n, res.Output, want)
		}
		if res.TimeWarps != 0 {
			t.Fatalf("serial run reported %d time warps", res.TimeWarps)
		}
	}
}

func TestThreadsParallelAllSchemes(t *testing.T) {
	schemes := []Scheme{SchemeCC, SchemeQ10, SchemeL10, SchemeS9, SchemeS9x, SchemeS100, SchemeSU}
	for _, s := range schemes {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			m := mustMachine(t, threadsProg, smallConfig(4))
			res, err := m.RunParallel(s)
			if err != nil {
				t.Fatal(err)
			}
			if res.Aborted {
				t.Fatalf("aborted at %d", res.EndTime)
			}
			if want := expectTotal(4); res.Output != want {
				t.Fatalf("output = %q, want %q (workload must execute correctly under every scheme)", res.Output, want)
			}
		})
	}
}

// TestConservativeSchemesExact verifies the paper's accuracy claim: with
// windows no larger than the critical latency, the conservative schemes
// (CC, Q10, L10, S9*) produce exactly the serial cycle count.
func TestConservativeSchemesExact(t *testing.T) {
	ref := runSerial(t, mustMachine(t, threadsProg, smallConfig(4)))
	if ref.Aborted {
		t.Fatal("reference aborted")
	}
	for _, s := range []Scheme{SchemeCC, SchemeQ10, SchemeL10, SchemeS9x} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			m := mustMachine(t, threadsProg, smallConfig(4))
			res, err := m.RunParallel(s)
			if err != nil {
				t.Fatal(err)
			}
			if res.EndTime != ref.EndTime {
				t.Fatalf("%v end time %d != serial reference %d", s, res.EndTime, ref.EndTime)
			}
			if res.TimeWarps != 0 {
				t.Fatalf("%v processed %d events out of timestamp order", s, res.TimeWarps)
			}
		})
	}
}

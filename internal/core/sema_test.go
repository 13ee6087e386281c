package core

import "testing"

// semaProg builds a producer/consumer pipeline on semaphores: core 0
// produces N items into a 4-slot ring guarded by empty/full semaphores,
// core 1 consumes and accumulates. Exercises SysSema* end to end.
const semaProg = `
.equ SYS_EXIT, 0
.equ SYS_TCREATE, 1
.equ SYS_TEXIT, 2
.equ SYS_TJOIN, 3
.equ SYS_SEMA_INIT, 9
.equ SYS_SEMA_WAIT, 10
.equ SYS_SEMA_SIGNAL, 11
.equ SYS_PRINT_INT, 12
.equ N, 64
.equ SLOTS, 4

main:
    la   a0, empty
    li   a1, SLOTS
    syscall SYS_SEMA_INIT
    la   a0, full
    li   a1, 0
    syscall SYS_SEMA_INIT
    la   a0, consumer
    li   a1, 1
    syscall SYS_TCREATE
    # produce 1..N
    li   r20, 1
p_loop:
    li   r8, N+1
    bge  r20, r8, p_done
    la   a0, empty
    syscall SYS_SEMA_WAIT
    # ring[(i-1) % SLOTS] = i
    addi r9, r20, -1
    andi r9, r9, SLOTS-1
    slli r9, r9, 3
    la   r10, ring
    add  r10, r10, r9
    sd   r20, 0(r10)
    la   a0, full
    syscall SYS_SEMA_SIGNAL
    addi r20, r20, 1
    j    p_loop
p_done:
    li   a0, 1
    syscall SYS_TJOIN
    la   r8, acc
    ld   a0, 0(r8)
    syscall SYS_PRINT_INT
    li   a0, 0
    syscall SYS_EXIT

consumer:
    li   r20, 1
    li   r21, 0           # acc
c_loop:
    li   r8, N+1
    bge  r20, r8, c_done
    la   a0, full
    syscall SYS_SEMA_WAIT
    addi r9, r20, -1
    andi r9, r9, SLOTS-1
    slli r9, r9, 3
    la   r10, ring
    add  r10, r10, r9
    ld   r11, 0(r10)
    add  r21, r21, r11
    la   a0, empty
    syscall SYS_SEMA_SIGNAL
    addi r20, r20, 1
    j    c_loop
c_done:
    la   r8, acc
    sd   r21, 0(r8)
    syscall SYS_TEXIT

.data
.align 8
empty: .dword 0
full:  .dword 0
acc:   .dword 0
ring:  .space SLOTS*8
`

// TestSemaphorePipeline runs the producer/consumer program under the
// serial engine and all schemes; the sum 1..64 = 2080 must always emerge.
func TestSemaphorePipeline(t *testing.T) {
	ref := runSerial(t, mustMachine(t, semaProg, smallConfig(2)))
	if ref.Aborted || ref.Output != "2080" {
		t.Fatalf("serial: aborted=%v output=%q", ref.Aborted, ref.Output)
	}
	for _, s := range []Scheme{SchemeCC, SchemeQ10, SchemeS9x, SchemeS9, SchemeSU} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			m := mustMachine(t, semaProg, smallConfig(2))
			res, err := m.RunParallel(s)
			if err != nil {
				t.Fatal(err)
			}
			if res.Output != "2080" {
				t.Fatalf("output = %q", res.Output)
			}
			if s.Conservative() && res.EndTime != ref.EndTime {
				t.Fatalf("conservative end %d != serial %d", res.EndTime, ref.EndTime)
			}
		})
	}
}

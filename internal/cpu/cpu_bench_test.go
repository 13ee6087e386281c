package cpu

import (
	"fmt"
	"testing"
)

// BenchmarkOoOTick measures the cost of one simulated cycle of the
// out-of-order core on a tight ALU loop — the quantity that sets the
// simulator's KIPS.
func BenchmarkOoOTick(b *testing.B) {
	bench := newBench(b, `
main:
    li   r8, 0
loop:
    addi r8, r8, 1
    xor  r9, r8, r8
    slli r10, r8, 1
    and  r11, r10, r8
    j    loop
`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.step()
	}
}

// missBoundProg returns a loop of n iterations whose issue queue sits
// mostly full of entries waiting on long-latency producers: each
// iteration's divide occupies the unpipelined divider for DivLat cycles,
// and its strided load walks an array twice the L1's size, so every load
// misses. The front end runs far ahead (the loop branch depends only on the
// counter), filling the window with the dependents of both.
func missBoundProg(n int) string {
	return fmt.Sprintf(`
main:
    la   r8, arr
    li   r9, 0
    li   r10, %d
    li   r20, 7
loop:
    div  r11, r9, r20
    add  r12, r11, r9
    xor  r13, r12, r11
    slli r14, r9, 6
    andi r14, r14, 32767
    add  r15, r8, r14
    ld   r16, 0(r15)
    add  r17, r16, r13
    or   r18, r17, r12
    sub  r19, r18, r16
    addi r9, r9, 1
    blt  r9, r10, loop
    la   r21, out
    sd   r19, 0(r21)
    li   a0, 0
    syscall 0
.data
.align 64
arr: .space 32768
out: .dword 0
`, n)
}

// BenchmarkOoOTickMissBound is BenchmarkOoOTick on missBoundProg: the
// cycles that tick with a full window and nothing ready, where the issue
// stage has the least to do.
func BenchmarkOoOTickMissBound(b *testing.B) {
	bench := newBench(b, missBoundProg(1<<30))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.step()
	}
}

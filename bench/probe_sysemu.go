package main

import (
	"math/rand"

	"slacksim/internal/sysemu"
)

// probeSysemu times Kernel.Syscall on an 8-core kernel over rounds of: each
// core takes and releases one of four seed-chosen locks, then all cores meet
// at a barrier. It returns host ns per call.
func probeSysemu(rng *rand.Rand, n int) float64 {
	const cores, lockBase, barrier = 8, 0x1000, 0x2000
	k := sysemu.NewKernel(&sysemu.Image{
		HeapStart: 1 << 20,
		HeapLimit: 2 << 20,
		StackTop:  func(int) uint64 { return 3 << 20 },
		LoadByte:  func(uint64) (byte, bool) { return 0, true },
	}, cores, cores)
	k.Notify = func(int, int64, int64) {}
	for l := 0; l < 4; l++ {
		k.Syscall(0, 0, sysemu.SysLockInit, [4]int64{lockBase + int64(l)*8})
	}
	k.Syscall(0, 0, sysemu.SysBarrierInit, [4]int64{barrier, cores})
	rounds := max(n/(3*cores), 1)
	locks := make([]int64, min(rounds*cores, streamLen))
	for i := range locks {
		locks[i] = lockBase + int64(rng.Intn(4))*8
	}
	t := int64(1)
	ns := sliceNS(rounds, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			for c := 0; c < cores; c++ {
				lock := [4]int64{locks[(r*cores+c)%len(locks)]}
				k.Syscall(c, t, sysemu.SysLock, lock)
				k.Syscall(c, t+1, sysemu.SysUnlock, lock)
				t += 2
			}
			for c := 0; c < cores; c++ {
				k.Syscall(c, t, sysemu.SysBarrier, [4]int64{barrier})
				t++
			}
		}
	})
	sink = int(k.Calls)
	return ns / (3 * cores)
}

package main

import (
	"math/rand"

	"slacksim/internal/event"
)

// streamLen caps the length of a seed-generated probe stream; a probe that
// needs more operations walks its stream again, with time moved on.
const streamLen = 1 << 16

// probeStream generates request events with nondecreasing base timestamps
// from 8 cores, the shape of the stream cores feed the manager, and returns
// them with the simulated time one walk of the stream covers.
func probeStream(rng *rand.Rand, n int) ([]event.Event, int64) {
	evs := make([]event.Event, min(n, streamLen))
	t := int64(0)
	for i := range evs {
		t += int64(rng.Intn(4))
		evs[i] = event.Event{
			Kind: event.KReadShared,
			Core: int32(rng.Intn(8)),
			Time: t + int64(rng.Intn(16)), // cores run a few cycles apart
			Seq:  int64(i),
			Addr: uint64(rng.Int63n(1<<20)) &^ 63,
		}
	}
	return evs, t + 16
}

// probeHeap times Heap.Push + Heap.Pop with 64 events resident, a busy GQ.
// It returns host ns per push+pop pair.
func probeHeap(rng *rand.Rand, n int) float64 {
	const resident = 64
	evs, span := probeStream(rng, n)
	var h event.Heap
	for _, ev := range evs[:min(resident, len(evs))] {
		ev.Time -= span
		h.Push(ev)
	}
	var last int64
	ns := sliceNS(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ev := evs[i%len(evs)]
			ev.Time += int64(i/len(evs)) * span
			h.Push(ev)
			last += h.Pop().Time
		}
	})
	sink = int(last)
	return ns
}

// probeRing times Ring.Push and Ring.PopBatch in bursts of 8 on one
// goroutine, so it leaves out the cache-line transfers between the two host
// threads of a real ring. It returns host ns per event pushed and popped.
func probeRing(rng *rand.Rand, n int) float64 {
	const burst = 8
	evs, _ := probeStream(rng, n)
	r := event.NewRing(512)
	buf := make([]event.Event, 0, burst)
	ns := sliceNS(n/burst, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			at := i * burst % (len(evs) - burst + 1)
			for _, ev := range evs[at : at+burst] {
				r.MustPush(ev)
			}
			buf = r.PopBatch(buf[:0])
		}
	})
	sink = len(buf)
	return ns / burst
}

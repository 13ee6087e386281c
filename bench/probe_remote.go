package main

import (
	"math/rand"

	"slacksim/internal/event"
	"slacksim/internal/remote"
)

// probeCodec times remote.AppendBatch + remote.DecodeBatch over
// seed-generated request events in batches of the given size (the traced
// run's mean wire batch). It returns host ns per event encoded and decoded.
func probeCodec(rng *rand.Rand, n, batch int) (float64, error) {
	evs, _ := probeStream(rng, n)
	batch = min(max(batch, 1), len(evs))
	var wire []byte
	var err error
	out := make([]event.Event, 0, batch)
	ns := sliceNS(max(n/batch, 1), func(lo, hi int) {
		for i := lo; i < hi && err == nil; i++ {
			at := i * batch % (len(evs) - batch + 1)
			wire = remote.AppendBatch(wire[:0], i&1, evs[at:at+batch])
			_, out, err = remote.DecodeBatch(wire, out[:0])
		}
	})
	sink = len(out)
	return ns / float64(batch), err
}

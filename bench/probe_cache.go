package main

import (
	"math/rand"
	"time"

	"slacksim/internal/cache"
	"slacksim/internal/interconnect"
	"slacksim/internal/stats"
)

// probeCache times L2System.Access + DrainBackInvs over a seed-generated
// request stream from 8 cores: half the requests fall in a 64 KB hot region
// shared by all cores, half in 1 MB (four times the L2), so hits, misses,
// evictions and invalidations all occur. It returns host ns per access.
func probeCache(rng *rand.Rand, n int) (float64, error) {
	cfg := cache.DefaultConfig(8)
	l2, err := cache.NewL2System(cfg)
	if err != nil {
		return 0, err
	}
	type req struct {
		core int
		addr uint64
		kind cache.ReqKind
	}
	reqs := make([]req, min(n, 4*streamLen))
	for i := range reqs {
		span := uint64(1 << 20)
		if rng.Intn(2) == 0 {
			span = 64 << 10
		}
		kind := cache.GetS
		switch p := rng.Intn(100); {
		case p < 25:
			kind = cache.GetM
		case p < 30:
			kind = cache.Upgrade
		}
		reqs[i] = req{core: rng.Intn(8), addr: cfg.LineAddr(uint64(rng.Int63n(int64(span)))), kind: kind}
	}
	invs := 0
	ns := sliceNS(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := reqs[i%len(reqs)]
			_, msgs := l2.Access(r.core, r.addr, r.kind, int64(i)*4)
			invs += len(msgs) + len(l2.DrainBackInvs())
		}
	})
	sink = invs
	return ns, nil
}

// probeInterconnect times Crossbar.Traverse on the target's 8×8 crossbar
// over seed-generated (core, bank) pairs. It returns host ns per traversal.
func probeInterconnect(rng *rand.Rand, n int) float64 {
	cfg := cache.DefaultConfig(8)
	x := interconnect.NewCrossbar(8, cfg.L2Banks, cfg.ReqNet, cfg.NetHop, cfg.PortOcc)
	pairs := make([][2]uint8, min(n, 4*streamLen))
	for i := range pairs {
		pairs[i] = [2]uint8{uint8(rng.Intn(8)), uint8(rng.Intn(cfg.L2Banks))}
	}
	var last int64
	ns := sliceNS(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := pairs[i%len(pairs)]
			last += x.Traverse(int(p[0]), int(p[1]), int64(i))
		}
	})
	sink = int(last)
	return ns
}

// sink keeps the probes' results alive so the compiler cannot drop the
// calls they time.
var sink int

// probeSlices is the number of timed slices a probe's unit cost is the
// median of.
const probeSlices = 5

// sliceNS runs op over [0, n) in five timed slices and returns the median
// slice's host ns per operation, so that a burst of host noise or a warm-up
// shorter than a slice does not move a unit cost.
func sliceNS(n int, op func(lo, hi int)) float64 {
	var per []float64
	for s := 0; s < probeSlices; s++ {
		lo, hi := s*n/probeSlices, (s+1)*n/probeSlices
		if lo == hi {
			continue
		}
		start := time.Now()
		op(lo, hi)
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(hi-lo))
	}
	return stats.Median(per)
}

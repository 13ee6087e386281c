// Package interconnect provides simple occupancy-based contention models for
// the on-chip fabric between cores and the NUCA L2 banks: each shared
// resource is a single server with a fixed per-message occupancy, so
// back-to-back messages queue behind each other. The paper's target couples
// cores to L2 banks this way; conflicts on such shared resources are one of
// the inter-core interaction channels slack can distort (§3.2.1).
package interconnect

// Resource is a single-server queue: each message occupies the server for a
// fixed number of cycles, and a message arriving while the server is busy
// waits. Not safe for concurrent use; in the parallel engine all resources
// are owned by the manager thread.
//
// Requests are normally presented in timestamp order (conservative slack
// schemes guarantee it). Optimistic schemes may present them out of order,
// so the observable backlog is capped at maxBacklog cycles — the longest
// queue a bounded number of outstanding requests could physically build.
// Without the cap, one far-future timestamp would poison the free clock
// and every later-arriving (but earlier-stamped) request would be served
// in the far future, compounding the very distortion it models (§3.2.1).
// In timestamp order the cap is never reached, so conservative schemes and
// the serial reference are bit-identical with or without it.
type Resource struct {
	perOp      int64 // server occupancy per message, in cycles
	free       int64 // first cycle at which the server is idle
	maxBacklog int64
	uses       int64
	waits      int64 // cumulative queueing cycles
}

// backlogOps bounds the queue depth a resource can present to any request
// — a finite request buffer, as real banks and memory controllers have.
// It also bounds how far one far-future timestamp (possible under
// optimistic slack schemes) can push later-arriving requests.
const backlogOps = 8

// NewResource creates a resource with the given per-message occupancy.
func NewResource(perOp int64) *Resource {
	if perOp < 1 {
		perOp = 1
	}
	return &Resource{perOp: perOp, maxBacklog: backlogOps * perOp}
}

// Acquire reserves the resource for one message arriving at cycle now and
// returns the cycle service actually starts.
func (r *Resource) Acquire(now int64) (start int64) {
	start = now
	if r.free > start {
		if capped := now + r.maxBacklog; r.free > capped {
			start = capped
		} else {
			start = r.free
		}
	}
	r.waits += start - now
	if f := start + r.perOp; f > r.free {
		r.free = f
	}
	r.uses++
	return start
}

// Uses returns the number of messages served.
func (r *Resource) Uses() int64 { return r.uses }

// State exports the resource's mutable occupancy state (free clock, use
// and wait counters) for shard checkpointing; perOp and maxBacklog are
// configuration and travel with the cache config instead.
func (r *Resource) State() (free, uses, waits int64) {
	return r.free, r.uses, r.waits
}

// SetState restores occupancy state captured by State on a resource built
// from the identical configuration.
func (r *Resource) SetState(free, uses, waits int64) {
	r.free, r.uses, r.waits = free, uses, waits
}

// WaitCycles returns the cumulative number of cycles messages spent queued.
func (r *Resource) WaitCycles() int64 { return r.waits }

// Reset clears occupancy and statistics.
func (r *Resource) Reset() { r.free, r.uses, r.waits = 0, 0, 0 }

// Crossbar connects n cores to m banks. Each bank has an independent input
// port (a Resource); traversal latency grows with the hop distance between
// the core and the bank, which is what makes the shared L2 non-uniform
// (NUCA).
type Crossbar struct {
	ports    []*Resource
	baseLat  int64
	hopLat   int64
	numCores int
}

// NewCrossbar builds a crossbar with one port per bank. baseLat is the
// minimum one-way traversal latency; hopLat is the extra latency per unit of
// core-to-bank distance; portOcc is the per-message port occupancy.
func NewCrossbar(numCores, numBanks int, baseLat, hopLat, portOcc int64) *Crossbar {
	ports := make([]*Resource, numBanks)
	for i := range ports {
		ports[i] = NewResource(portOcc)
	}
	return &Crossbar{ports: ports, baseLat: baseLat, hopLat: hopLat, numCores: numCores}
}

// Traverse models a message from core to bank injected at cycle now and
// returns its arrival cycle at the bank, including queueing at the bank's
// input port.
func (x *Crossbar) Traverse(core, bank int, now int64) int64 {
	start := x.ports[bank].Acquire(now)
	return start + x.baseLat + x.hopLat*x.distance(core, bank)
}

// Latency returns the unloaded core-to-bank traversal latency.
func (x *Crossbar) Latency(core, bank int) int64 {
	return x.baseLat + x.hopLat*x.distance(core, bank)
}

func (x *Crossbar) distance(core, bank int) int64 {
	if len(x.ports) == 0 || x.numCores == 0 {
		return 0
	}
	// Cores and banks are laid out along the same die edge; distance is the
	// index gap after scaling bank indices onto core positions.
	pos := bank
	if len(x.ports) != x.numCores {
		pos = bank * x.numCores / len(x.ports)
	}
	d := core - pos
	if d < 0 {
		d = -d
	}
	return int64(d)
}

// Ports exposes the per-bank input ports for shard checkpointing (their
// occupancy state is part of a shard's timing state).
func (x *Crossbar) Ports() []*Resource { return x.ports }

// Reset clears all port occupancy and statistics.
func (x *Crossbar) Reset() {
	for _, p := range x.ports {
		p.Reset()
	}
}

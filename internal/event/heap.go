package event

// Heap is a binary min-heap of events ordered by (Time, Core, Seq) — the
// manager's GQ and each memory shard's queue. It lives in the event
// package (rather than core) so the remote-shard worker loop, which runs
// in a separate process with no Machine, orders its event stream with
// exactly the same comparator as the in-process drivers.
type Heap struct {
	a []Event
}

// Len returns the number of queued events.
func (h *Heap) Len() int { return len(h.a) }

// Push inserts ev.
func (h *Heap) Push(ev Event) {
	// Fast path: cores emit their requests in nondecreasing timestamp order,
	// so most pushes are not below their parent slot and append without any
	// sift-up. (Not-below-parent is the exact heap condition; not-below-top
	// is necessary but not sufficient.)
	if n := len(h.a); n > 0 && !Less(&ev, &h.a[(n-1)/2]) {
		h.a = append(h.a, ev)
		return
	}
	h.a = append(h.a, ev)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !Less(&h.a[i], &h.a[p]) {
			break
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

// Peek returns a pointer to the oldest event, or nil when empty.
func (h *Heap) Peek() *Event {
	if len(h.a) == 0 {
		return nil
	}
	return &h.a[0]
}

// Pop removes and returns the oldest event.
func (h *Heap) Pop() Event {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(h.a) && Less(&h.a[l], &h.a[s]) {
			s = l
		}
		if r < len(h.a) && Less(&h.a[r], &h.a[s]) {
			s = r
		}
		if s == i {
			break
		}
		h.a[i], h.a[s] = h.a[s], h.a[i]
		i = s
	}
	return top
}

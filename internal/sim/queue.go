package sim

// The event queue is a binary min-heap of *Event ordered by (when, seq).
// The simulator keeps few events pending: over the Fig. 18 schemes and
// their write-queue, WC/WP/WT, line-size and half-stripe variants, a
// dispatch finds 4.3-8.5 events queued on average and never more than 16
// (DESIGN §10), so a push or pop is a handful of comparisons. Cancelled
// events stay in the heap and are collected when they reach the top.
//
// TestEngineQueueMatchesReferenceHeap and FuzzEventOrder cross-check the
// dispatch order against a container/heap reference.
type eventQueue []*Event

// before reports whether a dispatches ahead of b: earlier cycle first, then
// FIFO among events scheduled for the same cycle.
func before(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// push adds ev, sifting it up from the last leaf.
func (q *eventQueue) push(ev *Event) {
	ev.queued = true
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !before(ev, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	*q = h
}

// pop removes and returns the earliest event; the queue must not be empty.
// The last leaf is sifted down from the root into the hole.
func (q *eventQueue) pop() *Event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && before(h[r], h[c]) {
				c = r
			}
			if !before(h[c], last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	*q = h
	top.queued = false
	return top
}

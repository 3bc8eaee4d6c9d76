package sim

import (
	"container/heap"
	"testing"
)

// refEngine is the reference kernel: a container/heap binary heap ordered
// by (when, seq), with no free list. It is the ordering oracle the engine's
// hand-written heap must match event for event.
type refEngine struct {
	now    Cycle
	seq    uint64
	events eventHeap
}

type refEvent struct {
	when   Cycle
	seq    uint64
	fn     func()
	index  int // position in the heap; -1 once popped
	cancel bool
}

// eventHeap adapts the reference events to container/heap.
type eventHeap []*refEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

func (e *refEngine) at(when Cycle, fn func()) *refEvent {
	if when < e.now {
		panic("ref: scheduling in the past")
	}
	ev := &refEvent{when: when, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.events, ev)
	return ev
}

func (e *refEngine) cancel(ev *refEvent) {
	if ev == nil || ev.index < 0 {
		return
	}
	ev.cancel = true
}

func (e *refEngine) step() bool {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*refEvent)
		if ev.cancel {
			continue
		}
		e.now = ev.when
		ev.fn()
		return true
	}
	return false
}

func (e *refEngine) run() {
	for e.step() {
	}
}

// storm drives either kernel with an identical, seed-determined mix of
// schedules, cancellations, and nested re-schedules, and returns the
// dispatch order of event IDs. schedule/cancel/run abstract over the two
// kernels so the same op stream hits both.
func storm(seed uint64, schedule func(delay Cycle, fn func()) any, cancel func(h any), run func()) []int {
	rng := NewRNG(seed)
	var order []int
	var handles []any
	id := 0

	var spawn func(depth int)
	spawn = func(depth int) {
		myID := id
		id++
		// Mix of same-cycle, near (cache and PCM latencies) and far
		// (probe interval) delays, so same-cycle FIFO order and events
		// overtaking earlier-scheduled far ones are both exercised.
		var delay Cycle
		switch rng.Intn(4) {
		case 0:
			delay = 0
		case 1:
			delay = Cycle(rng.Intn(64))
		case 2:
			delay = Cycle(rng.Intn(4096))
		default:
			delay = Cycle(4096 + rng.Intn(4*4096))
		}
		h := schedule(delay, func() {
			order = append(order, myID)
			if depth < 3 && rng.Bernoulli(0.35) {
				spawn(depth + 1)
			}
		})
		handles = append(handles, h)
		// Cancel only handles that are certainly still pending (the one
		// just scheduled): the pooled engine recycles dispatched events,
		// so cancelling an arbitrary old handle is outside the ownership
		// contract and would diverge from the non-pooling reference.
		if rng.Bernoulli(0.15) {
			cancel(h)
		}
	}
	for i := 0; i < 300; i++ {
		spawn(0)
	}
	run()
	return order
}

// TestEngineQueueMatchesReferenceHeap cross-checks the engine's heap
// against the container/heap reference on seeded random event storms: both
// kernels must dispatch the exact same events in the exact same order.
func TestEngineQueueMatchesReferenceHeap(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		eng := NewEngine()
		got := storm(seed,
			func(d Cycle, fn func()) any { return eng.After(d, fn) },
			func(h any) { eng.Cancel(h.(*Event)) },
			func() { eng.Run(0) },
		)
		ref := &refEngine{}
		want := storm(seed,
			func(d Cycle, fn func()) any { return ref.at(ref.now+d, fn) },
			func(h any) { ref.cancel(h.(*refEvent)) },
			func() { ref.run() },
		)
		if len(got) != len(want) {
			t.Fatalf("seed %d: engine ran %d events, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: dispatch %d: engine ran event %d, reference %d",
					seed, i, got[i], want[i])
			}
		}
		if eng.Pending() != 0 {
			t.Fatalf("seed %d: %d events stuck in queue", seed, eng.Pending())
		}
	}
}

// TestEngineStaleHandleCancelAfterRecycleHitsPoolEvent pins the sharp edge
// of event pooling: a handle held past its dispatch and cancelled later can
// alias a recycled Event and kill an unrelated pending callback. Callers
// must clear handles at dispatch, as mem.Controller does with its phase
// events.
func TestEngineStaleHandleCancelAfterRecycleHitsPoolEvent(t *testing.T) {
	e := NewEngine()
	stale := e.At(1, func() {})
	e.Run(0) // dispatches and recycles `stale`
	ran := false
	fresh := e.At(2, func() { ran = true })
	if fresh != stale {
		t.Skip("allocator did not reuse the event; nothing to pin")
	}
	e.Cancel(stale) // stale handle now aliases `fresh`
	e.Run(0)
	if ran {
		t.Fatal("expected the stale cancel to hit the recycled event — contract changed")
	}
}

// TestEngineWindowMigration: an event scheduled far ahead, then a near one,
// then a second far event at the same cycle as the first and one a cycle
// later must dispatch in exact (when, seq) order, the two same-cycle far
// events FIFO. (The name dates from a calendar queue that migrated far
// events into its near window; the order it pinned is unchanged.)
func TestEngineWindowMigration(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(12288, func() { order = append(order, 0) })
	e.At(5, func() { order = append(order, 1) })
	e.At(12288, func() { order = append(order, 2) })
	e.At(12289, func() { order = append(order, 3) })
	e.Run(0)
	want := []int{1, 0, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", order, want)
		}
	}
}

// Package sim provides the discrete-event simulation kernel used by every
// other package in this repository: a deterministic binary-heap event
// queue keyed on a cycle clock, and a seedable pseudo-random number
// generator.
//
// All timing in the simulator is expressed in CPU cycles (4 GHz by default,
// so 1 ns = 4 cycles). Components schedule callbacks on the Engine; the
// Engine runs them in (time, sequence) order so simulations are fully
// deterministic for a given seed and configuration.
package sim

import (
	"fmt"
)

// Cycle is a point in simulated time, measured in CPU clock cycles.
type Cycle uint64

// Event is a scheduled callback. The callback runs exactly once, at the
// cycle it was scheduled for, unless cancelled first.
//
// Ownership: a handle returned by At/After is valid until the event's
// callback runs (or until a cancelled event is collected); after that the
// engine recycles the Event through its free list and the handle must be
// dropped. Every caller that keeps a handle across dispatch must clear it
// in the callback, as the memory controller does with its phase events.
type Event struct {
	when   Cycle
	seq    uint64 // tie-breaker: FIFO among events at the same cycle
	fn     func()
	next   *Event // free-list link
	queued bool   // in the event queue (possibly cancelled)
	cancel bool
}

// Scheduled reports whether the event is still pending.
func (e *Event) Scheduled() bool { return e != nil && e.queued && !e.cancel }

// Engine is a discrete-event simulator; create one with NewEngine.
type Engine struct {
	now   Cycle
	seq   uint64
	queue eventQueue
	free  *Event // recycled Events, linked through next
	ran   uint64
	hook  DispatchHook
}

// DispatchHook observes every event dispatch: now is the cycle the clock
// just advanced to, ran the total events executed including this one.
type DispatchHook func(now Cycle, ran uint64)

// NewEngine returns an empty engine positioned at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// EventsRun reports how many events have executed so far.
func (e *Engine) EventsRun() uint64 { return e.ran }

// Pending reports how many events are waiting in the queue (including
// cancelled events that have not yet been collected).
func (e *Engine) Pending() int { return len(e.queue) }

// alloc pops the free list or allocates a fresh Event.
func (e *Engine) alloc() *Event {
	ev := e.free
	if ev == nil {
		return &Event{}
	}
	e.free = ev.next
	ev.next = nil
	return ev
}

// recycle resets a finished event and pushes it onto the free list.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.cancel = false
	ev.next = e.free
	e.free = ev
}

// At schedules fn to run at the absolute cycle when. Scheduling in the past
// panics: that is always a component bug, and silently reordering time would
// corrupt every downstream measurement. The returned handle is valid until
// the callback runs; see the Event ownership note.
func (e *Engine) At(when Cycle, fn func()) *Event {
	if when < e.now {
		panic(fmt.Sprintf("sim: scheduling event at cycle %d before now %d", when, e.now))
	}
	ev := e.alloc()
	ev.when, ev.seq, ev.fn = when, e.seq, fn
	e.seq++
	e.queue.push(ev)
	return ev
}

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay Cycle, fn func()) *Event {
	return e.At(e.now+delay, fn)
}

// Cancel prevents a pending event from running. Cancelling a nil, already
// run, or already cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || !ev.queued {
		return
	}
	ev.cancel = true
}

// SetDispatchHook installs (or, with nil, removes) a callback observing
// every event dispatch — the tracer's tap into the event loop. The only
// cost without a hook is one nil check per event.
func (e *Engine) SetDispatchHook(h DispatchHook) { e.hook = h }

// next returns the earliest live event without removing it, or nil when
// none remain. Cancelled events that reach the top are collected.
func (e *Engine) next() *Event {
	for len(e.queue) > 0 {
		ev := e.queue[0]
		if !ev.cancel {
			return ev
		}
		e.recycle(e.queue.pop())
	}
	return nil
}

// Step runs the next pending event, advancing the clock to its timestamp.
// It reports false when no events remain.
func (e *Engine) Step() bool {
	if e.next() == nil {
		return false
	}
	ev := e.queue.pop()
	e.now = ev.when
	e.ran++
	fn := ev.fn
	// Recycle before dispatch: fn frequently re-schedules, and handing it
	// the just-finished Event keeps the steady-state pool at one entry.
	e.recycle(ev)
	if e.hook != nil {
		e.hook(e.now, e.ran)
	}
	fn()
	return true
}

// Run executes events until the queue is empty or until limit events have
// run (0 means no limit). It returns the number of events executed.
func (e *Engine) Run(limit uint64) uint64 {
	var n uint64
	for limit == 0 || n < limit {
		if !e.Step() {
			break
		}
		n++
	}
	return n
}

// RunUntil executes events with timestamps <= deadline. Events scheduled at
// exactly the deadline do run. The clock is left at the timestamp of the
// last executed event (it does not jump to the deadline if the queue drains
// early).
func (e *Engine) RunUntil(deadline Cycle) {
	for {
		ev := e.next()
		if ev == nil || ev.when > deadline {
			return
		}
		e.Step()
	}
}

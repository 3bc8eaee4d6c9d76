package sim

import (
	"testing"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run(0)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %d, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameCycle(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run(0)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-cycle events out of FIFO order: %v", got)
		}
	}
}

func TestEngineAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at Cycle
	e.At(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.Run(0)
	if at != 150 {
		t.Errorf("nested After ran at %d, want 150", at)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.At(10, func() { ran = true })
	e.Cancel(ev)
	e.Run(0)
	if ran {
		t.Error("cancelled event ran")
	}
	// Cancelling nil or twice must be safe.
	e.Cancel(nil)
	e.Cancel(ev)
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run(0)
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var got []Cycle
	for _, c := range []Cycle{10, 20, 30, 40} {
		c := c
		e.At(c, func() { got = append(got, c) })
	}
	e.RunUntil(25)
	if len(got) != 2 || got[1] != 20 {
		t.Fatalf("RunUntil(25) executed %v, want [10 20]", got)
	}
	e.RunUntil(40)
	if len(got) != 4 {
		t.Fatalf("second RunUntil executed %v", got)
	}
}

func TestEngineRunLimit(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := Cycle(1); i <= 10; i++ {
		e.At(i, func() { count++ })
	}
	n := e.Run(4)
	if n != 4 || count != 4 {
		t.Fatalf("Run(4) executed %d events (count %d), want 4", n, count)
	}
}

func TestEngineSelfRescheduling(t *testing.T) {
	e := NewEngine()
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		if ticks < 5 {
			e.After(10, tick)
		}
	}
	e.At(0, tick)
	e.Run(0)
	if ticks != 5 {
		t.Errorf("ticks = %d, want 5", ticks)
	}
	if e.Now() != 40 {
		t.Errorf("Now() = %d, want 40", e.Now())
	}
}

func TestEventScheduledReporting(t *testing.T) {
	e := NewEngine()
	ev := e.At(10, func() {})
	if !ev.Scheduled() {
		t.Error("pending event not reported as scheduled")
	}
	e.Run(0)
	if ev.Scheduled() {
		t.Error("completed event still reported as scheduled")
	}
	var nilEv *Event
	if nilEv.Scheduled() {
		t.Error("nil event reported as scheduled")
	}
}

package sim

import (
	"testing"

	"fpb/internal/testutil"
)

// TestEngineScheduleDispatchZeroAlloc guards the free-list pool: once the
// pool is primed, schedule + dispatch must not touch the allocator.
func TestEngineScheduleDispatchZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	e := NewEngine()
	fn := func() {}
	// Prime the pool.
	e.After(1, fn)
	e.Run(0)
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(10, fn)
		e.Run(0)
	})
	if allocs != 0 {
		t.Fatalf("schedule+dispatch allocated %.1f objects/op, want 0", allocs)
	}
}

// TestEngineFarEventSteadyStateZeroAlloc covers events scheduled far ahead
// (beyond any PCM read or pulse): the heap keeps its backing array, so they
// are allocation-free too once capacity exists.
func TestEngineFarEventSteadyStateZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	e := NewEngine()
	fn := func() {}
	// Prime pool and heap capacity.
	e.After(8192, fn)
	e.Run(0)
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(8192, fn)
		e.Run(0)
	})
	if allocs != 0 {
		t.Fatalf("far schedule+dispatch allocated %.1f objects/op, want 0", allocs)
	}
}

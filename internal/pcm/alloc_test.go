package pcm

import (
	"testing"

	"fpb/internal/mapping"
	"fpb/internal/sim"
	"fpb/internal/testutil"
)

// TestStoreUpdateSteadyStateZeroAlloc guards the store's write path:
// rewriting a line that has a slot must not touch the allocator.
func TestStoreUpdateSteadyStateZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	s := NewStore(64)
	line := make([]byte, 64)
	s.Update(0x1000, line) // take the line's slot
	allocs := testing.AllocsPerRun(1000, func() {
		line[0]++
		s.Update(0x1000, line)
	})
	if allocs != 0 {
		t.Fatalf("Update allocated %.1f objects/op, want 0", allocs)
	}
}

// TestBuildSteadyStateZeroAlloc guards the profile build path: once a kept
// profile and the scratch buffers have grown, rebuilding the profile must
// not touch the allocator, including when IterMax is far above any real
// draw.
func TestBuildSteadyStateZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	for _, iterMax := range []int{sim.DefaultConfig().IterMax, 1 << 30} {
		cfg := sim.DefaultConfig()
		cfg.IterMax = iterMax
		cfg.TruncateTailCells = 8
		b := NewBuilder(&cfg, sim.NewRNG(1))
		mapFn := mapping.New(sim.MapBIM, cfg.CellsPerLine(), cfg.Chips)
		old := make([]byte, cfg.L3LineB)
		new := make([]byte, cfg.L3LineB)
		rng := sim.NewRNG(2)
		var p WriteProfile
		build := func() {
			for i := range new {
				new[i] = byte(rng.Uint64())
			}
			b.Build(&p, 0x1000, old, new, mapFn, true)
		}
		for i := 0; i < 100; i++ {
			build() // grow the profile and scratch to this write mix
		}
		if allocs := testing.AllocsPerRun(1000, build); allocs != 0 {
			t.Errorf("IterMax %d: rebuilding a kept profile allocated %.1f objects/op, want 0", iterMax, allocs)
		}
	}
}

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
// average under one allocation per build, including when IterMax is far
// above any real draw. Every build here is of new content, so each one
// misses the draw memo and publishes its draws into the memo's slabs,
// which allocate a slab or grow the index only every hundred or so builds.
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

// TestBuildMemoHitZeroAlloc guards the draw memo's hit path: rebuilding a
// write whose draws the memo holds inserts nothing and allocates nothing.
func TestBuildMemoHitZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	cfg := sim.DefaultConfig()
	b := NewBuilder(&cfg, sim.NewRNG(1))
	b.memo = newDrawMemo(maxDrawMemoBytes)
	mapFn := mapping.New(sim.MapBIM, cfg.CellsPerLine(), cfg.Chips)
	rng := sim.NewRNG(2)
	new := make([]byte, cfg.L3LineB)
	for i := range new {
		new[i] = byte(rng.Uint64())
	}
	var p WriteProfile
	b.Build(&p, 0x2000, nil, new, mapFn, true) // publish the draws, grow p
	allocs := testing.AllocsPerRun(1000, func() {
		b.Build(&p, 0x2000, nil, new, mapFn, true)
	})
	if b.memo.hits != 1001 || b.memo.misses != 1 {
		t.Fatalf("memo saw %d hits and %d misses, want 1001 and 1", b.memo.hits, b.memo.misses)
	}
	if allocs != 0 {
		t.Errorf("a memo hit allocated %.1f objects/op, want 0", allocs)
	}
}

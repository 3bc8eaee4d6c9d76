package core

import (
	"testing"

	"fpb/internal/mapping"
	"fpb/internal/pcm"
	"fpb/internal/power"
	"fpb/internal/sim"
	"fpb/internal/testutil"
)

// TestPlanSteadyStateZeroAlloc guards the plan/chunk pools: once primed,
// Plan + Release must not touch the allocator — this is the per-write-
// attempt hot path of the FPB scheduler.
func TestPlanSteadyStateZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	cfg := sim.DefaultConfig()
	cfg.Scheme = sim.SchemeGCPIPM // chip budgets enforced: per-chip vectors in play
	rng := sim.NewRNG(7)
	b := pcm.NewBuilder(&cfg, rng)
	cells := make([]int, 128)
	for i := range cells {
		cells[i] = i * 3 % cfg.CellsPerLine()
	}
	prof := b.BuildFromCells(0x40, cells, nil, mapping.New(cfg.CellMapping, cfg.CellsPerLine(), cfg.Chips), false)

	pl := NewPlanner(&cfg)
	// Prime the pools (both the unsplit and the MR shapes).
	pl.Release(pl.Plan(prof))
	pl.Release(pl.PlanMR(prof, 2))
	allocs := testing.AllocsPerRun(1000, func() {
		plan := pl.Plan(prof)
		pl.Release(plan)
	})
	if allocs != 0 {
		t.Fatalf("Plan+Release allocated %.1f objects/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		plan := pl.PlanMR(prof, 2)
		pl.Release(plan)
	})
	if allocs != 0 {
		t.Fatalf("PlanMR+Release allocated %.1f objects/op, want 0", allocs)
	}
}

// TestProfileBuildSteadyStateZeroAlloc guards the profile pool end to end:
// Build + Release over realistic line content must be allocation-free once
// the pool holds a profile of sufficient shape.
func TestProfileBuildSteadyStateZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	cfg := sim.DefaultConfig()
	rng := sim.NewRNG(11)
	b := pcm.NewBuilder(&cfg, rng)
	mapFn := mapping.New(cfg.CellMapping, cfg.CellsPerLine(), cfg.Chips)
	old := make([]byte, cfg.L3LineB)
	new := make([]byte, cfg.L3LineB)
	for i := range new {
		old[i] = byte(i)
		new[i] = byte(i * 7)
	}
	b.Release(b.Build(0x80, old, new, mapFn, cfg.WriteTruncation))
	allocs := testing.AllocsPerRun(1000, func() {
		b.Release(b.Build(0x80, old, new, mapFn, cfg.WriteTruncation))
	})
	if allocs != 0 {
		t.Fatalf("Build+Release allocated %.1f objects/op, want 0", allocs)
	}
}

// refusedWrite returns a scheduler whose power is held by a blocker write
// and a profile it refuses under every Multi-RESET split (Fig. 6's setting:
// 30 of 80 tokens free, and the 3-way split of 100 cells still needs 34).
func refusedWrite() (*Scheduler, *pcm.WriteProfile) {
	cfg := fig5Config(sim.SchemeIPMMR)
	cfg.MultiResetSplit = 3
	s := newSched(&cfg)
	if _, ok := s.TryStart(wrA(cfg.Chips), new(Offer)); !ok {
		panic("blocker not admitted")
	}
	return s, manualProfile(100, []int{98, 50, 20, 0}, cfg.Chips)
}

// TestRefusedTryStartZeroAlloc guards the refusal path of admission: a write
// refused again at an unchanged epoch allocates nothing, and neither does
// one re-asked with its offer's plans after the epoch moved.
func TestRefusedTryStartZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	s, prof := refusedWrite()
	var o Offer
	if _, ok := s.TryStart(prof, &o); ok {
		t.Fatal("write admitted; the test needs a refusal")
	}
	if allocs := testing.AllocsPerRun(1000, func() { s.TryStart(prof, &o) }); allocs != 0 {
		t.Errorf("refused TryStart at an unchanged epoch allocated %.1f objects/op, want 0", allocs)
	}
	mgr := s.Manager()
	allocs := testing.AllocsPerRun(1000, func() {
		g, _ := mgr.TryAcquire(power.Demand{DIMM: 1})
		mgr.Release(g) // moves the epoch
		s.TryStart(prof, &o)
	})
	if allocs != 0 {
		t.Errorf("refused TryStart at a moved epoch allocated %.1f objects/op, want 0", allocs)
	}
}

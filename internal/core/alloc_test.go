package core

import (
	"testing"

	"fpb/internal/mapping"
	"fpb/internal/pcm"
	"fpb/internal/power"
	"fpb/internal/sim"
	"fpb/internal/testutil"
)

// TestPlanSteadyStateZeroAlloc guards planning: re-planning a kept plan
// must not touch the allocator once its slices have grown — this is the
// per-write-attempt hot path of the FPB scheduler.
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
	prof := b.BuildFromCells(&pcm.WriteProfile{}, 0x40, cells, nil, mapping.New(cfg.CellMapping, cfg.CellsPerLine(), cfg.Chips), false)

	pl := NewPlanner(&cfg)
	var plan WritePlan
	allocs := testing.AllocsPerRun(1000, func() { pl.Plan(&plan, prof) })
	if allocs != 0 {
		t.Fatalf("re-planning a kept plan allocated %.1f objects/op, want 0", allocs)
	}
	// The split plan has more phases than the base plan: one kept plan
	// alternating between the two grows once, then reuses its storage.
	allocs = testing.AllocsPerRun(1000, func() {
		pl.PlanMR(&plan, prof, 2)
		pl.Plan(&plan, prof)
	})
	if allocs != 0 {
		t.Fatalf("alternating PlanMR and Plan into a kept plan allocated %.1f objects/op, want 0", allocs)
	}
}

// TestProfileBuildSteadyStateZeroAlloc guards the profile build end to end:
// rebuilding a kept profile over realistic line content must be
// allocation-free once the profile has grown to the write's shape.
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
	var p pcm.WriteProfile
	allocs := testing.AllocsPerRun(1000, func() {
		b.Build(&p, 0x80, old, new, mapFn, cfg.WriteTruncation)
	})
	if allocs != 0 {
		t.Fatalf("rebuilding a kept profile allocated %.1f objects/op, want 0", allocs)
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
	var g power.Grant
	allocs := testing.AllocsPerRun(1000, func() {
		mgr.TryAcquire(power.Demand{DIMM: 1}, &g)
		mgr.Release(&g) // moves the epoch
		s.TryStart(prof, &o)
	})
	if allocs != 0 {
		t.Errorf("refused TryStart at a moved epoch allocated %.1f objects/op, want 0", allocs)
	}
}

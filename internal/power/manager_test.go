package power

import (
	"math"
	"testing"

	"fpb/internal/sim"
)

func managerFor(scheme sim.Scheme, mutate func(*sim.Config)) (*Manager, *sim.Config) {
	cfg := sim.DefaultConfig()
	cfg.Scheme = scheme
	if mutate != nil {
		mutate(&cfg)
	}
	return NewManager(&cfg, nil), &cfg
}

func uniformDemand(total float64, chips int) Demand {
	per := make([]float64, chips)
	for i := range per {
		per[i] = total / float64(chips)
	}
	return Demand{DIMM: total, PerChip: per}
}

func TestIdealSchemeGrantsEverything(t *testing.T) {
	m, _ := managerFor(sim.SchemeIdeal, nil)
	for i := 0; i < 100; i++ {
		if !m.TryAcquire(uniformDemand(10000, 8), new(Grant)) {
			t.Fatal("Ideal denied a grant")
		}
	}
}

func TestDIMMOnlyEnforcesOnlyDIMM(t *testing.T) {
	m, _ := managerFor(sim.SchemeDIMMOnly, nil)
	// A demand concentrated on one chip passes under DIMM-only.
	per := make([]float64, 8)
	per[3] = 500
	var g Grant
	if !m.TryAcquire(Demand{DIMM: 500, PerChip: per}, &g) {
		t.Fatal("DIMM-only denied a single-chip 500-token write")
	}
	// But the DIMM total binds: 100 more would exceed 560.
	if m.TryAcquire(Demand{DIMM: 100}, new(Grant)) {
		t.Error("DIMM-only granted past the 560-token budget")
	}
	m.Release(&g)
	if !m.TryAcquire(Demand{DIMM: 100}, new(Grant)) {
		t.Error("grant not released")
	}
}

func TestDIMMChipEnforcesChipBudget(t *testing.T) {
	m, cfg := managerFor(sim.SchemeDIMMChip, nil)
	lcp := cfg.LCPTokens() // 66.5
	per := make([]float64, 8)
	per[0] = lcp + 1
	if m.TryAcquire(Demand{DIMM: per[0], PerChip: per}, new(Grant)) {
		t.Error("DIMM+chip granted past one chip's LCP with no GCP")
	}
	per[0] = lcp
	if !m.TryAcquire(Demand{DIMM: lcp, PerChip: per}, new(Grant)) {
		t.Error("DIMM+chip denied a demand exactly at the chip budget")
	}
}

func TestGCPPowersHotChip(t *testing.T) {
	m, cfg := managerFor(sim.SchemeGCP, nil)
	lcp := cfg.LCPTokens()
	// A first write occupies most of chip 0 (the "hot chip" of Fig. 3).
	busy := make([]float64, 8)
	busy[0] = 50
	var g0, g Grant
	if !m.TryAcquire(Demand{DIMM: 50, PerChip: busy}, &g0) {
		t.Fatal("setup grant denied")
	}
	// The second write needs 30 tokens on chip 0; its LCP has only 16.5
	// left, so the GCP must power the whole segment.
	per := make([]float64, 8)
	per[0] = 30
	if !m.TryAcquire(Demand{DIMM: 30, PerChip: per}, &g) {
		t.Fatal("GCP failed to power a hot chip within its output limit")
	}
	if math.Abs(g.GCPTokens()-30) > 1e-9 {
		t.Errorf("GCP supplied %.2f tokens, want whole segment 30", g.GCPTokens())
	}
	// Chip 0's remaining LCP headroom must be untouched: borrowing
	// prefers the idle chips, and the segment rule forbids mixing LCP
	// and GCP on one segment.
	if got := m.ChipAvailable(0); math.Abs(got-(lcp-50)) > 1e-9 {
		t.Errorf("chip 0 availability = %.2f, want %.2f", got, lcp-50)
	}
	// Borrowed tokens: gcpOut * E_LCP / E_GCP spread over idle chips.
	borrowWant := 30 * cfg.LCPEff / cfg.GCPEff
	var borrowed float64
	for c := 1; c < 8; c++ {
		borrowed += lcp - m.ChipAvailable(c)
	}
	if math.Abs(borrowed-borrowWant) > 1e-6 {
		t.Errorf("borrowed %.3f LCP tokens, want %.3f (Eq. 5)", borrowed, borrowWant)
	}
	m.Release(&g0)
	m.Release(&g)
	m.CheckInvariants(true)
}

func TestGCPOutputLimit(t *testing.T) {
	m, cfg := managerFor(sim.SchemeGCP, nil)
	per := make([]float64, 8)
	per[0] = cfg.GCPTokens() + 1 // beyond the pump's max output
	if m.TryAcquire(Demand{DIMM: per[0], PerChip: per}, new(Grant)) {
		t.Error("GCP exceeded its maximum output rating")
	}
}

func TestGCPCannotBorrowFromBusyChips(t *testing.T) {
	m, cfg := managerFor(sim.SchemeGCP, nil)
	lcp := cfg.LCPTokens()
	// Saturate every chip with direct LCP writes.
	full := make([]float64, 8)
	for i := range full {
		full[i] = lcp
	}
	var g Grant
	if !m.TryAcquire(Demand{DIMM: 8 * lcp, PerChip: full}, &g) {
		t.Fatal("saturating grant denied")
	}
	// Now a hot segment has nothing to borrow.
	per := make([]float64, 8)
	per[2] = 10
	if m.TryAcquire(Demand{DIMM: 10, PerChip: per}, new(Grant)) {
		t.Error("GCP granted with zero borrowable headroom (violates Eq. 6)")
	}
	m.Release(&g)
	m.CheckInvariants(true)
}

func TestGCPEfficiencyScalesBorrowing(t *testing.T) {
	for _, eff := range []float64{0.95, 0.7, 0.5, 0.3} {
		m, cfg := managerFor(sim.SchemeGCP, func(c *sim.Config) { c.GCPEff = eff })
		// Exhaust chip 0 so the next demand must go through the GCP.
		busy := make([]float64, 8)
		busy[0] = cfg.LCPTokens()
		var g0, g Grant
		if !m.TryAcquire(Demand{DIMM: busy[0], PerChip: busy}, &g0) {
			t.Fatalf("eff %.2f: setup grant denied", eff)
		}
		per := make([]float64, 8)
		per[0] = 20
		if !m.TryAcquire(Demand{DIMM: 20, PerChip: per}, &g) {
			t.Fatalf("eff %.2f: grant denied", eff)
		}
		var borrowed float64
		for c := 1; c < 8; c++ {
			borrowed += cfg.LCPTokens() - m.ChipAvailable(c)
		}
		want := 20 * cfg.LCPEff / eff
		if math.Abs(borrowed-want) > 1e-6 {
			t.Errorf("eff %.2f: borrowed %.3f, want %.3f", eff, borrowed, want)
		}
		m.Release(&g0)
		m.Release(&g)
	}
}

// TestResizeShrinksAllocation resizes a grant as a write's iteration
// boundary does: Release, then TryAcquire of the smaller demand into the
// same grant.
func TestResizeShrinksAllocation(t *testing.T) {
	m, cfg := managerFor(sim.SchemeDIMMChip, nil)
	var g Grant
	if !m.TryAcquire(uniformDemand(400, cfg.Chips), &g) {
		t.Fatal("initial acquire denied")
	}
	before := m.DIMMAvailable()
	m.Release(&g)
	if !m.TryAcquire(uniformDemand(200, cfg.Chips), &g) {
		t.Fatal("shrinking resize denied")
	}
	if m.DIMMAvailable() != before+200 {
		t.Errorf("resize freed %.1f tokens, want 200", m.DIMMAvailable()-before)
	}
	m.Release(&g)
	m.CheckInvariants(true)
}

func TestResizeFailureLeavesNothingHeld(t *testing.T) {
	m, cfg := managerFor(sim.SchemeDIMMChip, nil)
	var g Grant
	m.TryAcquire(uniformDemand(100, cfg.Chips), &g)
	m.Release(&g)
	// Demand more than the whole DIMM: must fail with the old tokens
	// returned and the grant left empty.
	if m.TryAcquire(uniformDemand(6000, cfg.Chips), &g) {
		t.Fatal("impossible resize granted")
	}
	if g.Held() || g.GCPTokens() != 0 {
		t.Errorf("refused grant not empty: %+v", g)
	}
	m.CheckInvariants(true)
}

func TestTelemetry(t *testing.T) {
	m, cfg := managerFor(sim.SchemeGCP, nil)
	// Exhaust chip 0 so the 30-token segment is GCP-powered.
	busy := make([]float64, 8)
	busy[0] = cfg.LCPTokens()
	var gBusy, g Grant
	if !m.TryAcquire(Demand{DIMM: busy[0], PerChip: busy}, &gBusy) {
		t.Fatal("setup grant denied")
	}
	defer m.Release(&gBusy)
	per := make([]float64, 8)
	per[0] = 30
	m.TryAcquire(Demand{DIMM: 30, PerChip: per}, &g)
	if m.MaxGCPOut() != 30 {
		t.Errorf("MaxGCPOut = %g, want 30", m.MaxGCPOut())
	}
	m.RecordWriteGCPUsage(30)
	m.RecordWriteGCPUsage(0)
	if m.AvgGCPPerWrite() != 15 {
		t.Errorf("AvgGCPPerWrite = %g, want 15", m.AvgGCPPerWrite())
	}
	wasteWant := 30*cfg.LCPEff/cfg.GCPEff - 30
	if math.Abs(m.WastedInputPower()-wasteWant) > 1e-9 {
		t.Errorf("WastedInputPower = %g, want %g", m.WastedInputPower(), wasteWant)
	}
	if m.Grants() != 2 { // setup grant + GCP grant
		t.Errorf("Grants = %d, want 2", m.Grants())
	}
	m.Release(&g)
	if m.TryAcquire(Demand{DIMM: 9999}, &g) {
		t.Fatal("should deny")
	}
	d, _, _ := m.Denials()
	if d != 1 {
		t.Errorf("DIMM denials = %d, want 1", d)
	}
}

func TestDemandTotal(t *testing.T) {
	d := Demand{PerChip: []float64{1, 2, 3}}
	if d.Total() != 6 {
		t.Errorf("Total = %g, want 6", d.Total())
	}
}

func TestReleaseEmptyGrant(t *testing.T) {
	m, _ := managerFor(sim.SchemeDIMMChip, nil)
	epoch := m.Epoch()
	m.Release(new(Grant))
	if m.Epoch() != epoch {
		t.Error("releasing an empty grant moved the epoch")
	}
	m.CheckInvariants(true)
}

func TestDoubleReleaseIsSafe(t *testing.T) {
	m, cfg := managerFor(sim.SchemeDIMMChip, nil)
	var g Grant
	m.TryAcquire(uniformDemand(80, cfg.Chips), &g)
	m.Release(&g)
	m.Release(&g) // grant emptied on first release; second is a no-op
	m.CheckInvariants(true)
}

func TestLocalScaleRaisesChipBudget(t *testing.T) {
	m, cfg := managerFor(sim.SchemeDIMMChip, func(c *sim.Config) { c.LocalScale = 2 })
	per := make([]float64, 8)
	per[0] = cfg.DIMMTokens * cfg.LCPEff / 8 * 1.5 // above 1x LCP, below 2x
	if !m.TryAcquire(Demand{DIMM: per[0], PerChip: per}, new(Grant)) {
		t.Error("2xlocal denied a demand within the doubled chip budget")
	}
}

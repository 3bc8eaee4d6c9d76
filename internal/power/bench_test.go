package power

import (
	"testing"

	"fpb/internal/sim"
)

func BenchmarkTryAcquireReleaseLCP(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Scheme = sim.SchemeDIMMChip
	m := NewManager(&cfg, nil)
	d := uniformDemand(200, cfg.Chips)
	var g Grant
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !m.TryAcquire(d, &g) {
			b.Fatal("denied")
		}
		m.Release(&g)
	}
}

func BenchmarkTryAcquireReleaseGCP(b *testing.B) {
	m, d := gcpBorrowSetup()
	var g Grant
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !m.TryAcquire(d, &g) {
			b.Fatal("denied")
		}
		m.Release(&g)
	}
}

// gcpBorrowSetup returns a GCP manager whose chip 0 is saturated by a held
// grant, and a demand on chip 0 that only the GCP borrow path can admit.
func gcpBorrowSetup() (*Manager, Demand) {
	cfg := sim.DefaultConfig()
	cfg.Scheme = sim.SchemeGCP
	m := NewManager(&cfg, nil)
	busy := make([]float64, cfg.Chips)
	busy[0] = cfg.LCPTokens()
	if !m.TryAcquire(Demand{DIMM: busy[0], PerChip: busy}, new(Grant)) {
		panic("saturating grant denied")
	}
	per := make([]float64, cfg.Chips)
	per[0] = 20
	return m, Demand{DIMM: 20, PerChip: per}
}

package power

import (
	"testing"

	"fpb/internal/sim"
)

// TestManagerRandomWorkloadInvariants drives the manager with a random
// acquire/release/resize sequence (a resize is a Release, then a TryAcquire
// into the same grant) and checks that (a) accounting never goes
// negative, (b) Eq. 6 holds at all times (total raw input power within the
// DIMM budget), and (c) everything returns to fully free at the end.
func TestManagerRandomWorkloadInvariants(t *testing.T) {
	for _, scheme := range []sim.Scheme{sim.SchemeDIMMChip, sim.SchemeGCP} {
		for seed := uint64(1); seed <= 5; seed++ {
			cfg := sim.DefaultConfig()
			cfg.Scheme = scheme
			m := NewManager(&cfg, nil)
			rng := sim.NewRNG(seed)
			var live []*Grant
			for step := 0; step < 2000; step++ {
				switch {
				case len(live) > 0 && rng.Bernoulli(0.4):
					// Release a random grant.
					i := rng.Intn(len(live))
					m.Release(live[i])
					live = append(live[:i], live[i+1:]...)
				case len(live) > 0 && rng.Bernoulli(0.2):
					// Resize a random grant to a smaller demand.
					i := rng.Intn(len(live))
					d := randomDemand(rng, cfg.Chips, 20)
					m.Release(live[i])
					if !m.TryAcquire(d, live[i]) {
						live = append(live[:i], live[i+1:]...)
					}
				default:
					d := randomDemand(rng, cfg.Chips, 60)
					if g := new(Grant); m.TryAcquire(d, g) {
						live = append(live, g)
					}
				}
				checkEq6(t, m, &cfg)
			}
			for _, g := range live {
				m.Release(g)
			}
			m.CheckInvariants(true)
		}
	}
}

func randomDemand(rng *sim.RNG, chips int, maxPerChip int) Demand {
	per := make([]float64, chips)
	total := 0.0
	for c := range per {
		if rng.Bernoulli(0.5) {
			per[c] = float64(rng.Intn(maxPerChip))
			total += per[c]
		}
	}
	return Demand{DIMM: total, PerChip: per}
}

// checkEq6: the raw input power drawn from the DIMM — chips' LCP usage plus
// GCP borrowings, all referred to the DIMM input through E_LCP — can never
// exceed PT_DIMM (the conservation the paper states as Eq. 6).
func checkEq6(t *testing.T, m *Manager, cfg *sim.Config) {
	t.Helper()
	var chipUse float64
	for c := 0; c < cfg.Chips; c++ {
		use := cfg.LCPTokens() - m.ChipAvailable(c)
		if use < -1e-9 {
			t.Fatalf("chip %d over-freed: %g in use", c, use)
		}
		chipUse += use
	}
	rawInput := chipUse / cfg.LCPEff
	if rawInput > cfg.DIMMTokens+1e-6 {
		t.Fatalf("Eq.6 violated: raw input %g exceeds DIMM budget %g", rawInput, cfg.DIMMTokens)
	}
	if m.GCPInUse() < -1e-9 {
		t.Fatal("negative GCP usage")
	}
}

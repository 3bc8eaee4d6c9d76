package core

import (
	"reflect"
	"testing"

	"fpb/internal/mapping"
	"fpb/internal/pcm"
	"fpb/internal/sim"
)

// offerConfigs are the admission paths offers must leave unchanged: the
// DIMM budget alone, chip budgets with the GCP, per-iteration plans, the
// Multi-RESET fallback with and without the GCP, and unconditional
// Multi-RESET.
func offerConfigs() map[string]sim.Config {
	mk := func(s sim.Scheme, always bool, localScale float64) sim.Config {
		cfg := sim.DefaultConfig()
		cfg.Scheme = s
		cfg.MultiResetAlways = always
		cfg.LocalScale = localScale
		return cfg
	}
	return map[string]sim.Config{
		"dimm-only":      mk(sim.SchemeDIMMOnly, false, 1),
		"gcp":            mk(sim.SchemeGCP, false, 1),
		"gcp+ipm":        mk(sim.SchemeGCPIPM, false, 1),
		"gcp+ipm+mr":     mk(sim.SchemeGCPIPMMR, false, 1),
		"mr-always":      mk(sim.SchemeGCPIPMMR, true, 1),
		"ipm+mr,1.5xloc": mk(sim.SchemeIPMMR, false, 1.5),
	}
}

// randomProfiles builds n profiles of random content written over all-zero
// lines, from a few changed cells to most of the line: some writes fit
// beside others, some only alone, some only split.
func randomProfiles(cfg *sim.Config, n int, rng *sim.RNG) []*pcm.WriteProfile {
	b := pcm.NewBuilder(cfg, rng.Derive(1))
	mapFn := mapping.New(cfg.CellMapping, cfg.CellsPerLine(), cfg.Chips)
	old := make([]byte, cfg.L3LineB)
	profs := make([]*pcm.WriteProfile, n)
	for i := range profs {
		density := []float64{0.02, 0.1, 0.3, 0.6}[i%4]
		new := make([]byte, cfg.L3LineB)
		for j := range new {
			if rng.Bernoulli(density) {
				new[j] = byte(rng.Uint64())
			}
		}
		profs[i] = b.Build(&pcm.WriteProfile{}, uint64(i*cfg.L3LineB), old, new, mapFn, false)
	}
	return profs
}

// twinWrite is one write as both schedulers see it: the scheduler under
// test keeps its offer, and with it the ticket, for the write's whole life
// and, like a recycled write request, for the writes after it; an admitted
// write has a ticket in each scheduler.
type twinWrite struct {
	prof   *pcm.WriteProfile
	offer  Offer
	ta, tb *Ticket
}

// TestOfferMatchesFreshPlanning drives two schedulers through one seeded
// sequence of TryStart, Advance, Reacquire, Pause, Cancel, profile rebuilds
// and completed writes reused for the next enqueue. The scheduler under
// test keeps each write's offer across attempts and reuses a completed
// write's offer, reset as the controller resets it, for the next write;
// its twin passes a new offer on every attempt, so it plans and asks the
// power manager every time into fresh storage. Admissions, plans,
// advances, Stats and Denials must agree at every step.
func TestOfferMatchesFreshPlanning(t *testing.T) {
	for name, cfg := range offerConfigs() {
		for seed := uint64(1); seed <= 3; seed++ {
			twinRun(t, name, &cfg, seed, 3000)
		}
	}
}

func twinRun(t *testing.T, name string, cfg *sim.Config, seed uint64, steps int) {
	rng := sim.NewRNG(seed)
	profs := randomProfiles(cfg, 40, rng.Derive(2))
	a, b := newSched(cfg), newSched(cfg)
	var queued, active []*twinWrite
	enqueue := func() { queued = append(queued, &twinWrite{prof: profs[rng.Intn(len(profs))]}) }
	for i := 0; i < 12; i++ {
		enqueue()
	}
	pick := func(ws []*twinWrite, ok func(*twinWrite) bool) int {
		var idx []int
		for i, w := range ws {
			if ok(w) {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			return -1
		}
		return idx[rng.Intn(len(idx))]
	}
	holds := func(w *twinWrite) bool { return w.ta.Holds() }
	step := 0
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s seed %d step %d: "+format, append([]any{name, seed, step}, args...)...)
	}
	for ; step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 40: // TryStart
			i := pick(queued, func(*twinWrite) bool { return true })
			if i < 0 {
				continue
			}
			w := queued[i]
			ta, okA := a.TryStart(w.prof, &w.offer)
			tb, okB := b.TryStart(w.prof, new(Offer))
			if okA != okB {
				fail("TryStart admitted %v, twin %v", okA, okB)
			}
			if !okB {
				continue
			}
			if ta != &w.offer.ticket {
				fail("admitted ticket does not live in the write's offer")
			}
			if !reflect.DeepEqual(ta.Plan, tb.Plan) {
				fail("admitted plans differ: %+v vs %+v", ta.Plan, tb.Plan)
			}
			w.ta, w.tb = ta, tb
			queued = append(queued[:i], queued[i+1:]...)
			active = append(active, w)
		case op < 70: // Advance
			i := pick(active, holds)
			if i < 0 {
				continue
			}
			w := active[i]
			ra, rb := a.Advance(w.ta), b.Advance(w.tb)
			if ra != rb {
				fail("Advance = %v, twin %v", ra, rb)
			}
			if ra == AdvanceDone {
				// The completed write's storage takes the next write,
				// as a recycled request does: a new profile, for
				// which the offer is reset.
				active = append(active[:i], active[i+1:]...)
				w.prof = profs[rng.Intn(len(profs))]
				w.offer.Reset()
				w.ta, w.tb = nil, nil
				queued = append(queued, w)
			}
		case op < 84: // Reacquire a stalled or paused write's tokens
			i := pick(active, func(w *twinWrite) bool { return !w.ta.Holds() })
			if i < 0 {
				continue
			}
			if ra, rb := a.Reacquire(active[i].ta), b.Reacquire(active[i].tb); ra != rb {
				fail("Reacquire = %v, twin %v", ra, rb)
			}
		case op < 90: // Pause
			if i := pick(active, holds); i >= 0 {
				a.Pause(active[i].ta)
				b.Pause(active[i].tb)
			}
		case op < 95: // Cancel: the write re-queues for a full re-issue
			i := pick(active, func(*twinWrite) bool { return true })
			if i < 0 {
				continue
			}
			w := active[i]
			a.Cancel(w.ta)
			b.Cancel(w.tb)
			w.ta, w.tb = nil, nil
			active = append(active[:i], active[i+1:]...)
			queued = append([]*twinWrite{w}, queued...)
		default: // the line changed under a queued write: new profile
			i := pick(queued, func(*twinWrite) bool { return true })
			if i < 0 {
				continue
			}
			queued[i].offer.Reset()
			queued[i].prof = profs[rng.Intn(len(profs))]
		}
		if sa, sb := statsOf(a), statsOf(b); sa != sb {
			fail("Stats %v, twin %v", sa, sb)
		}
		da, ca, ga := a.Manager().Denials()
		db, cb, gb := b.Manager().Denials()
		if da != db || ca != cb || ga != gb {
			fail("Denials (%d,%d,%d), twin (%d,%d,%d)", da, ca, ga, db, cb, gb)
		}
	}
	started, _, _, _, _, fails := a.Stats()
	if started == 0 || fails == 0 {
		t.Errorf("%s seed %d: %d admissions and %d refusals; the sequence must exercise both", name, seed, started, fails)
	}
}

func statsOf(s *Scheduler) [6]uint64 {
	var v [6]uint64
	v[0], v[1], v[2], v[3], v[4], v[5] = s.Stats()
	return v
}

package pcm

import (
	"math"
	"testing"

	"fpb/internal/sim"
)

func newTestModel(t *testing.T) (*IterModel, *sim.RNG) {
	t.Helper()
	cfg := sim.DefaultConfig()
	return NewIterModel(&cfg), sim.NewRNG(1)
}

func TestIterModelFixedStates(t *testing.T) {
	m, rng := newTestModel(t)
	for i := 0; i < 100; i++ {
		if got := m.Draw(rng, State00); got != 1 {
			t.Fatalf("'00' draw = %d, want fixed 1", got)
		}
		if got := m.Draw(rng, State11); got != 2 {
			t.Fatalf("'11' draw = %d, want fixed 2", got)
		}
	}
}

func TestIterModelMeans(t *testing.T) {
	m, rng := newTestModel(t)
	const draws = 200000
	sum01, sum10 := 0, 0
	for i := 0; i < draws; i++ {
		sum01 += m.Draw(rng, State01)
		sum10 += m.Draw(rng, State10)
	}
	mean01 := float64(sum01) / draws
	mean10 := float64(sum10) / draws
	// The IterMax cap truncates the slow tail, so allow ~12% slack below
	// the configured means of 8 and 6.
	if math.Abs(mean01-8) > 1.0 {
		t.Errorf("'01' mean = %.2f, want ~8", mean01)
	}
	if math.Abs(mean10-6) > 0.8 {
		t.Errorf("'10' mean = %.2f, want ~6", mean10)
	}
	if mean10 >= mean01 {
		t.Errorf("'10' mean %.2f should be below '01' mean %.2f", mean10, mean01)
	}
}

func TestIterModelBounds(t *testing.T) {
	cfg := sim.DefaultConfig()
	m, rng := NewIterModel(&cfg), sim.NewRNG(2)
	for i := 0; i < 50000; i++ {
		for _, s := range []CellState{State00, State01, State10, State11} {
			d := m.Draw(rng, s)
			if d < 1 || d > cfg.IterMax {
				t.Fatalf("draw for state %d = %d, out of [1,%d]", s, d, cfg.IterMax)
			}
		}
	}
	if m.MaxIters() != cfg.IterMax {
		t.Errorf("MaxIters = %d, want %d", m.MaxIters(), cfg.IterMax)
	}
}

func TestIterModelIntermediateStatesNeedSET(t *testing.T) {
	m, rng := newTestModel(t)
	for i := 0; i < 1000; i++ {
		if d := m.Draw(rng, State01); d < 2 {
			t.Fatalf("'01' draw = %d, must be >= 2 (RESET + >=1 SET)", d)
		}
		if d := m.Draw(rng, State10); d < 2 {
			t.Fatalf("'10' draw = %d, must be >= 2", d)
		}
	}
}

func TestIterModelSLCAlwaysOne(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.BitsPerCell = 1
	m, rng := NewIterModel(&cfg), sim.NewRNG(3)
	for i := 0; i < 100; i++ {
		if d := m.Draw(rng, CellState(i%4)); d != 1 {
			t.Fatalf("SLC draw = %d, want 1", d)
		}
	}
}

func TestIterModelDeterministicForSeed(t *testing.T) {
	cfg := sim.DefaultConfig()
	a, ra := NewIterModel(&cfg), sim.NewRNG(9)
	b, rb := NewIterModel(&cfg), sim.NewRNG(9)
	for i := 0; i < 1000; i++ {
		s := CellState(i % 4)
		if a.Draw(ra, s) != b.Draw(rb, s) {
			t.Fatal("same-seed models diverged")
		}
	}
}

func TestSolveMix(t *testing.T) {
	// The mixture mean must equal the configured mean:
	// F1*fast + F2*slow == mean.
	m := solveMix(8, 0.375)
	got := 0.375*m.fastMean + 0.625*m.slowMean
	if math.Abs(got-8) > 1e-9 {
		t.Errorf("mixture mean = %g, want 8 (fast %g, slow %g)", got, m.fastMean, m.slowMean)
	}
	if m.fastMean >= m.slowMean {
		t.Errorf("fast phase (%g) not below slow phase (%g)", m.fastMean, m.slowMean)
	}
	// Degenerate small means clamp to the minimum.
	d := solveMix(2, 0.5)
	if d.fastMean < minIters || d.slowMean < d.fastMean {
		t.Errorf("degenerate mix = %+v", d)
	}
}

func TestIterModelThinTail(t *testing.T) {
	// The property write truncation depends on: only a few cells of a
	// line write straggle far past the mean. For state '01' (mean 8),
	// fewer than 5% of draws may exceed 13 iterations.
	m, rng := newTestModel(t)
	const draws = 100000
	far := 0
	for i := 0; i < draws; i++ {
		if m.Draw(rng, State01) > 13 {
			far++
		}
	}
	if frac := float64(far) / draws; frac > 0.05 {
		t.Errorf("%.1f%% of draws beyond 13 iterations; tail too thick for WT", frac*100)
	}
}

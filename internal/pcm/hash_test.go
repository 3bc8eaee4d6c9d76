package pcm

import (
	"testing"

	"fpb/internal/mapping"
	"fpb/internal/sim"
)

// TestBuildDeterministicAcrossBuilders: the same physical write must get
// the same iteration profile from independently seeded builders — the
// property that makes cross-scheme comparisons noise-free.
func TestBuildDeterministicAcrossBuilders(t *testing.T) {
	cfg := sim.DefaultConfig()
	mapFn := mapping.New(sim.MapBIM, cfg.CellsPerLine(), cfg.Chips)
	old := make([]byte, cfg.L3LineB)
	new := make([]byte, cfg.L3LineB)
	for i := 0; i < 100; i++ {
		SetCell(new, i*7, 2, CellState(i%4))
	}
	b1 := NewBuilder(&cfg, sim.NewRNG(111))
	b2 := NewBuilder(&cfg, sim.NewRNG(999))
	p1 := b1.Build(&WriteProfile{}, 0x4000, old, new, mapFn, false)
	p2 := b2.Build(&WriteProfile{}, 0x4000, old, new, mapFn, false)
	if p1.TotalIters != p2.TotalIters {
		t.Fatalf("iteration counts differ: %d vs %d", p1.TotalIters, p2.TotalIters)
	}
	for k := range p1.RemainTotal {
		if p1.RemainTotal[k] != p2.RemainTotal[k] {
			t.Fatalf("remain[%d] differs: %d vs %d", k, p1.RemainTotal[k], p2.RemainTotal[k])
		}
	}
}

// TestBuildVariesWithContent: different content must (in general) yield
// different difficulty; the hash is not degenerate.
func TestBuildVariesWithContent(t *testing.T) {
	cfg := sim.DefaultConfig()
	mapFn := mapping.New(sim.MapVIM, cfg.CellsPerLine(), cfg.Chips)
	b := NewBuilder(&cfg, sim.NewRNG(1))
	old := make([]byte, cfg.L3LineB)
	same := 0
	var prev int
	for v := 0; v < 32; v++ {
		next := make([]byte, cfg.L3LineB)
		for i := 0; i < 200; i++ {
			SetCell(next, i, 2, CellState((i+v)%3+1))
		}
		p := b.Build(&WriteProfile{}, 0x8000, old, next, mapFn, false)
		if v > 0 && p.TotalIters == prev {
			same++
		}
		prev = p.TotalIters
	}
	if same == 31 {
		t.Error("iteration count identical for 32 distinct contents; hash degenerate")
	}
}

func TestContentHashSensitivity(t *testing.T) {
	a := contentHash(1, []byte{1, 2}, []byte{3, 4})
	if contentHash(2, []byte{1, 2}, []byte{3, 4}) == a {
		t.Error("hash ignores address")
	}
	if contentHash(1, []byte{9, 2}, []byte{3, 4}) == a {
		t.Error("hash ignores old content")
	}
	if contentHash(1, []byte{1, 2}, []byte{3, 9}) == a {
		t.Error("hash ignores new content")
	}
	if contentHash(1, []byte{1, 2}, []byte{3, 4}) != a {
		t.Error("hash not deterministic")
	}
}

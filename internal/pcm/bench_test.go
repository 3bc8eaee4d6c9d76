package pcm

import (
	"testing"

	"fpb/internal/mapping"
	"fpb/internal/sim"
)

func BenchmarkDiffCells256B(b *testing.B) {
	old := make([]byte, 256)
	new := make([]byte, 256)
	for i := range new {
		if i%3 == 0 {
			new[i] = 0xA5
		}
	}
	var cells []int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cells = DiffCells(cells[:0], old, new, 2)
	}
	if len(cells) == 0 {
		b.Fatal("no diff")
	}
}

func BenchmarkCountChangedCells(b *testing.B) {
	old := make([]byte, 256)
	new := make([]byte, 256)
	for i := range new {
		new[i] = byte(i)
	}
	for i := 0; i < b.N; i++ {
		if CountChangedCells(old, new, 2) == 0 {
			b.Fatal("no changes")
		}
	}
}

func BenchmarkProfileBuild(b *testing.B) {
	cfg := sim.DefaultConfig()
	builder := NewBuilder(&cfg, sim.NewRNG(1))
	mapFn := mapping.New(sim.MapBIM, cfg.CellsPerLine(), cfg.Chips)
	old := make([]byte, cfg.L3LineB)
	new := make([]byte, cfg.L3LineB)
	for i := 0; i < 200; i++ {
		SetCell(new, i*5, 2, CellState(1+i%3))
	}
	// Steady state: each write request rebuilds the profile it keeps.
	var p WriteProfile
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if builder.Build(&p, uint64(i)*256, old, new, mapFn, false).Changed == 0 {
			b.Fatal("empty profile")
		}
	}
}

func BenchmarkIterModelDraw(b *testing.B) {
	cfg := sim.DefaultConfig()
	m := NewIterModel(&cfg, sim.NewRNG(2))
	for i := 0; i < b.N; i++ {
		if m.Draw(State01) < 2 {
			b.Fatal("bad draw")
		}
	}
}

// BenchmarkStoreScatteredWrites writes 256 lines 1 MiB apart into a fresh
// store: its B/op is what sparse addresses cost the store per line written.
func BenchmarkStoreScatteredWrites(b *testing.B) {
	const lineBytes, n = 256, 256
	line := make([]byte, lineBytes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewStore(lineBytes)
		for j := 0; j < n; j++ {
			s.Put(uint64(j)<<20, line)
		}
	}
}

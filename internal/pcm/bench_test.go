package pcm

import (
	"slices"
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

// BenchmarkProfileBuild builds a new write each time: every build misses
// the draw memo and publishes its draws.
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

// BenchmarkProfileBuildRepeat rebuilds writes as a Fig. 18 sweep does. 512
// writes shaped like the sweep's traffic (256 B lines, 200 changed cells,
// about 100 of them '01' or '10') are each built by five builders, one
// column at a time: two on an NE mapping table (DIMM+chip and Ideal) and
// three on a BIM one (the GCP columns). Each round of 5 x 512 builds moves
// the writes to new addresses, so the first column draws and publishes and
// the other four read the memo: 80% hits, as in a sweep.
func BenchmarkProfileBuildRepeat(b *testing.B) {
	const writes, columns, changed = 512, 5, 200
	cfg := sim.DefaultConfig()
	cells := cfg.CellsPerLine()
	rng := sim.NewRNG(3)
	olds, news := make([][]byte, writes), make([][]byte, writes)
	perm := make([]int, cells)
	for w := range olds {
		olds[w] = make([]byte, cfg.L3LineB)
		for i := range olds[w] {
			olds[w][i] = byte(rng.Uint64())
		}
		news[w] = slices.Clone(olds[w])
		rng.Perm(perm)
		for _, cell := range perm[:changed] {
			// One of the three other states, uniformly: half of the
			// changed cells land on '01' or '10'.
			s := Cell(olds[w], cell, 2) + CellState(1+rng.Intn(3))
			SetCell(news[w], cell, 2, s%4)
		}
	}
	ne := mapping.NewTable(mapping.New(sim.MapNaive, cells, cfg.Chips), cells, cfg.Chips)
	bim := mapping.NewTable(mapping.New(sim.MapBIM, cells, cfg.Chips), cells, cfg.Chips)
	tabs := [columns]*mapping.Table{ne, ne, bim, bim, bim}
	var builders [columns]*Builder
	for c := range builders {
		builders[c] = NewBuilder(&cfg, sim.NewRNG(uint64(c)))
	}
	var p WriteProfile
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, c, round := i%writes, i/writes%columns, i/(writes*columns)
		addr := uint64(round*writes+w) * 256
		mapFn := tabs[c].Select(int(addr>>8)%cells, cfg.Chips, false, false)
		if builders[c].Build(&p, addr, olds[w], news[w], mapFn, false).Changed != changed {
			b.Fatal("wrong changed count")
		}
	}
}

func BenchmarkIterModelDraw(b *testing.B) {
	cfg := sim.DefaultConfig()
	m, rng := NewIterModel(&cfg), sim.NewRNG(2)
	for i := 0; i < b.N; i++ {
		if m.Draw(rng, State01) < 2 {
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

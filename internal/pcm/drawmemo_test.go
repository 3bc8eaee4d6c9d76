package pcm

import (
	"reflect"
	"sync"
	"testing"

	"fpb/internal/mapping"
	"fpb/internal/sim"
)

// midCells counts the cells of a write that draw their iterations: its
// changed '01' and '10' cells.
func midCells(cfg *sim.Config, old, new []byte) int {
	if cfg.BitsPerCell == 1 {
		return 0
	}
	n := 0
	for _, cell := range refDiffCells(nil, old, new, cfg.BitsPerCell) {
		if s := Cell(new, cell, cfg.BitsPerCell); s == State01 || s == State10 {
			n++
		}
	}
	return n
}

// TestDrawMemoMatchesReference builds TestBuildMatchesReference's Build
// calls twice, each pass through fresh builders. The second pass finds
// every write's draws in the process's memo, and every profile of both
// passes equals the reference's.
func TestDrawMemoMatchesReference(t *testing.T) {
	pass := func() (hits, misses, lookups uint64) {
		before := DrawMemoStats()
		var got WriteProfile
		n := 0
		forEachRefCase(func(c *refCase) {
			b := NewBuilder(&c.cfg, sim.NewRNG(c.seed))
			for i, k := range c.builds {
				if k.fromCells {
					continue
				}
				if c.cfg.IterMax <= 255 && midCells(&c.cfg, k.old, k.new) > 0 {
					lookups++
				}
				mapFn := c.mapFn(k)
				b.Build(&got, k.addr, k.old, k.new, mapFn, k.truncate)
				if want := refBuild(&c.cfg, k.addr, k.old, k.new, mapFn, k.truncate); !reflect.DeepEqual(got, *want) {
					t.Fatalf("case %d build %d: %s: %s", n, i, c.describe(k), profileMismatch(&got, want))
				}
			}
			n++
		})
		after := DrawMemoStats()
		return after.Hits - before.Hits, after.Misses - before.Misses, lookups
	}
	pass()
	hits, misses, lookups := pass()
	if lookups == 0 || hits != lookups || misses != 0 {
		t.Errorf("second pass: %d hits and %d misses, want %d hits and no miss", hits, misses, lookups)
	}
}

// TestDrawMemoChecksTargets forces one seed on writes whose '01'/'10'
// cells differ, in their targets or in their number: none may read
// another's draws, and each is served once it has published its own.
func TestDrawMemoChecksTargets(t *testing.T) {
	cfg := sim.DefaultConfig()
	mapFn := mapping.New(sim.MapBIM, cfg.CellsPerLine(), cfg.Chips)
	line := func(n int, s CellState) []byte {
		l := make([]byte, cfg.L3LineB)
		for i := 0; i < n; i++ {
			SetCell(l, 3*i, 2, s)
			SetCell(l, 3*i+1, 2, State11)
		}
		return l
	}
	all01, all10, fewer01 := line(100, State01), line(100, State10), line(99, State01)
	b := NewBuilder(&cfg, sim.NewRNG(1))
	b.memo = newDrawMemo(maxDrawMemoBytes)
	const addr, seed = 0x1000, 0x5eed
	var got WriteProfile
	for i, new := range [][]byte{all01, all01, all10, all10, fewer01, fewer01, all01} {
		b.build(&got, addr, seed, nil, new, mapFn, false)
		if want := refBuildSeeded(&cfg, addr, seed, nil, new, mapFn, false); !reflect.DeepEqual(got, *want) {
			t.Fatalf("build %d: %s", i, profileMismatch(&got, want))
		}
	}
	if len(b.memo.index) != 1 || b.memo.hits != 3 || b.memo.misses != 4 {
		t.Errorf("memo has %d entries, %d hits and %d misses, want 1, 3 and 4", len(b.memo.index), b.memo.hits, b.memo.misses)
	}
}

// TestDrawMemoSeparatesLaws builds one write under three iteration laws,
// interleaved: each build must see its own law's draws.
func TestDrawMemoSeparatesLaws(t *testing.T) {
	base := sim.DefaultConfig()
	capped, slower := base, base
	capped.IterMax = 8
	slower.Iter01Mean = 10
	mapFn := mapping.New(sim.MapBIM, base.CellsPerLine(), base.Chips)
	new := make([]byte, base.L3LineB)
	for i := 0; i < 150; i++ {
		SetCell(new, 5*i, 2, CellState(1+i%2))
	}
	const addr = 0x7e57_0000
	cfgs := []*sim.Config{&base, &capped, &slower}
	wants := make([]*WriteProfile, len(cfgs))
	builders := make([]*Builder, len(cfgs))
	for i, cfg := range cfgs {
		wants[i] = refBuild(cfg, addr, nil, new, mapFn, false)
		builders[i] = NewBuilder(cfg, sim.NewRNG(1))
		for j := range i {
			if reflect.DeepEqual(wants[i], wants[j]) {
				t.Fatalf("laws %d and %d give one profile; the test cannot tell them apart", j, i)
			}
		}
	}
	var got WriteProfile
	for _, i := range []int{0, 1, 2, 2, 0, 1, 1, 2, 0} {
		builders[i].Build(&got, addr, nil, new, mapFn, false)
		if !reflect.DeepEqual(got, *wants[i]) {
			t.Fatalf("law %d: %s", i, profileMismatch(&got, wants[i]))
		}
	}
}

// TestDrawMemoConcurrentBuilders has four goroutines, each with its own
// builder, build one set of writes in different orders through one memo,
// while the process's memo registry and its stats are used alongside.
func TestDrawMemoConcurrentBuilders(t *testing.T) {
	cfg := sim.DefaultConfig()
	mapFn := mapping.New(sim.MapVIM, cfg.CellsPerLine(), cfg.Chips)
	rng := sim.NewRNG(42)
	const writes, workers = 64, 4
	olds, news := make([][]byte, writes), make([][]byte, writes)
	wants := make([]*WriteProfile, writes)
	drawing := 0
	for i := range news {
		if i%2 == 0 {
			olds[i] = randomLine(rng, nil, cfg.L3LineB)
		}
		news[i] = randomLine(rng, olds[i], cfg.L3LineB)
		wants[i] = refBuild(&cfg, uint64(i)<<8, olds[i], news[i], mapFn, true)
		if midCells(&cfg, olds[i], news[i]) > 0 {
			drawing++
		}
	}
	shared := newDrawMemo(maxDrawMemoBytes)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := NewBuilder(&cfg, sim.NewRNG(uint64(g)))
			b.memo = shared
			order := make([]int, writes)
			sim.NewRNG(uint64(g)).Perm(order)
			var got WriteProfile
			for _, i := range order {
				b.Build(&got, uint64(i)<<8, olds[i], news[i], mapFn, true)
				if !reflect.DeepEqual(got, *wants[i]) {
					t.Errorf("worker %d, write %d: %s", g, i, profileMismatch(&got, wants[i]))
					return
				}
			}
			DrawMemoStats()
		}()
	}
	wg.Wait()
	if len(shared.index) != drawing || shared.hits+shared.misses != workers*uint64(drawing) {
		t.Errorf("memo has %d entries after %d hits and %d misses, want %d entries after %d lookups",
			len(shared.index), shared.hits, shared.misses, drawing, workers*drawing)
	}
}

// TestDrawMemoBound publishes far more than a small memo may hold, building
// each write twice in a row: the memo stays within its bound, empties when
// it reaches it, serves every second build, and every build matches the
// reference.
func TestDrawMemoBound(t *testing.T) {
	cfg := sim.DefaultConfig()
	mapFn := mapping.New(sim.MapBIM, cfg.CellsPerLine(), cfg.Chips)
	b := NewBuilder(&cfg, sim.NewRNG(1))
	m := newDrawMemo(3 * drawMemoSlabBytes)
	b.memo = m
	rng := sim.NewRNG(3)
	news := make([][]byte, 1000)
	for i := range news {
		news[i] = make([]byte, cfg.L3LineB)
		for j := range news[i] {
			news[i][j] = byte(rng.Uint64())
		}
	}
	emptied := 0
	var got WriteProfile
	for i, new := range news {
		want := refBuild(&cfg, uint64(i)<<8, nil, new, mapFn, false)
		for rep := 0; rep < 2; rep++ {
			entries := len(m.index)
			b.Build(&got, uint64(i)<<8, nil, new, mapFn, false)
			if len(m.index) < entries {
				emptied++
			}
			if m.heldBytes() > m.maxBytes {
				t.Fatalf("write %d: the memo holds %d bytes, above its bound of %d", i, m.heldBytes(), m.maxBytes)
			}
			if !reflect.DeepEqual(got, *want) {
				t.Fatalf("write %d, build %d: %s", i, rep, profileMismatch(&got, want))
			}
		}
	}
	if emptied < 2 || m.hits != uint64(len(news)) {
		t.Errorf("the memo emptied %d times and hit %d times; want it to reach its bound and serve every rebuild (%d)", emptied, m.hits, len(news))
	}
}

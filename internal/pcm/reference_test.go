package pcm

import (
	"fmt"
	"reflect"
	"testing"

	"fpb/internal/mapping"
	"fpb/internal/sim"
)

// The ref* functions are the straightforward per-cell formulations of
// DiffCells, CountChangedCells, Build and BuildFromCells: two Cell
// extractions per cell of the line, one row increment per (cell,
// unfinished iteration), one Multi-RESET pass per split factor. The
// production versions must match them exactly, RNG consumption included.

func refDiffCells(dst []int, old, new []byte, bitsPerCell int) []int {
	n := NumCells(len(new), bitsPerCell)
	for i := 0; i < n; i++ {
		var o CellState
		if old != nil {
			o = Cell(old, i, bitsPerCell)
		}
		if o != Cell(new, i, bitsPerCell) {
			dst = append(dst, i)
		}
	}
	return dst
}

func refCountChangedCells(old, new []byte, bitsPerCell int) int {
	n := NumCells(len(new), bitsPerCell)
	count := 0
	for i := 0; i < n; i++ {
		var o CellState
		if old != nil {
			o = Cell(old, i, bitsPerCell)
		}
		if o != Cell(new, i, bitsPerCell) {
			count++
		}
	}
	return count
}

func refBuild(cfg *sim.Config, lineAddr uint64, old, new []byte, mapFn mapping.Func, truncate bool) *WriteProfile {
	return refBuildSeeded(cfg, lineAddr, contentHash(lineAddr, old, new), old, new, mapFn, truncate)
}

// refBuildSeeded is refBuild drawing from the stream seed names.
func refBuildSeeded(cfg *sim.Config, lineAddr, seed uint64, old, new []byte, mapFn mapping.Func, truncate bool) *WriteProfile {
	cells := refDiffCells(nil, old, new, cfg.BitsPerCell)
	targets := make([]CellState, len(cells))
	for i, cell := range cells {
		targets[i] = Cell(new, cell, cfg.BitsPerCell)
	}
	return refBuildFromCells(cfg, sim.NewRNG(seed), lineAddr, cells, targets, mapFn, truncate)
}

func refBuildFromCells(cfg *sim.Config, rng *sim.RNG, lineAddr uint64, cells []int, targets []CellState, mapFn mapping.Func, truncate bool) *WriteProfile {
	iters := NewIterModel(cfg)
	p := &WriteProfile{}
	p.LineAddr = lineAddr
	p.Changed = len(cells)
	p.Truncated = 0
	p.PerChip = resizeInts(p.PerChip, cfg.Chips)
	maxIters := cfg.IterMax
	iterOf := make([]int, len(cells))
	chipOf := make([]int, len(cells))
	total := 1
	for i, cell := range cells {
		var target CellState
		if targets != nil {
			target = targets[i]
		} else {
			target = CellState(rng.Intn(4))
		}
		t := iters.Draw(rng, target)
		iterOf[i] = t
		chip := mapFn(cell)
		chipOf[i] = chip
		p.PerChip[chip]++
		if t > total {
			total = t
		}
	}
	if total > maxIters {
		total = maxIters
	}
	p.TotalIters = total
	p.RemainTotal = resizeInts(p.RemainTotal, total+1)
	p.RemainPerChip = make([][]int, total+1)
	for k := range p.RemainPerChip {
		p.RemainPerChip[k] = resizeInts(p.RemainPerChip[k], cfg.Chips)
	}
	for i := range cells {
		t := iterOf[i]
		for k := 0; k < t && k <= total; k++ {
			p.RemainTotal[k]++
			p.RemainPerChip[k][chipOf[i]]++
		}
	}
	p.MRGroups = make([][][]int, MaxMultiResetSplit+1)
	for m := 2; m <= MaxMultiResetSplit; m++ {
		g := make([][]int, cfg.Chips)
		for c := range g {
			g[c] = make([]int, m)
		}
		p.MRGroups[m] = g
	}
	for m := 2; m <= MaxMultiResetSplit; m++ {
		g := p.MRGroups[m]
		for i, cell := range cells {
			g[chipOf[i]][(cell/mrGroupGranularity)%m]++
		}
	}
	if truncate && cfg.TruncateTailCells > 0 {
		p.applyTruncation(cfg.TruncateTailCells)
	}
	return p
}

// profileMismatch names the first exported WriteProfile field on which got
// and want differ, or returns "".
func profileMismatch(got, want *WriteProfile) string {
	gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < gv.NumField(); i++ {
		f := gv.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("%s: got %v, want %v", f.Name, g, w)
		}
	}
	return ""
}

func pick[T any](rng *sim.RNG, xs ...T) T { return xs[rng.Intn(len(xs))] }

// randomLine returns a line that differs from base (nil = zeros) in a
// random fraction of its bytes.
func randomLine(rng *sim.RNG, base []byte, n int) []byte {
	line := make([]byte, n)
	copy(line, base)
	density := pick(rng, 0.0, 0.02, 0.1, 0.4, 1.0)
	for i := range line {
		if rng.Float64() < density {
			line[i] ^= byte(rng.Uint64())
		}
	}
	return line
}

// refCase is one configuration of TestBuildMatchesReference: the seed of
// its builder's stream and the builds made through that builder, in order.
type refCase struct {
	cfg    sim.Config
	seed   uint64
	base   mapping.Func
	tab    *mapping.Table
	builds []refCall
}

// refCall is one build: Build(old, new), or BuildFromCells(changed,
// targets) when fromCells. Its mapping is the case's base function (sel 0)
// or its table at offset, whole (sel 1) or half-striped (sel 2).
type refCall struct {
	what            string
	sel, offset     int
	upper, truncate bool
	addr            uint64
	fromCells       bool
	old, new        []byte
	changed         []int
	targets         []CellState
}

// mapFn selects the call's mapping. A table serves one selection at a
// time, so select it right before the build that uses it.
func (c *refCase) mapFn(k refCall) mapping.Func {
	switch k.sel {
	case 1:
		return c.tab.Select(k.offset, c.cfg.Chips, false, false)
	case 2:
		return c.tab.Select(k.offset, c.cfg.Chips, true, k.upper)
	}
	return c.base
}

// forEachRefCase generates TestBuildMatchesReference's 1024 cases of 4
// builds each, the same ones on every call, and hands them to fn in turn.
func forEachRefCase(fn func(c *refCase)) {
	const cases, buildsPerCase = 1024, 4
	for n := 0; n < cases; n++ {
		rng := sim.NewRNG(uint64(n))
		c := refCase{cfg: sim.DefaultConfig()}
		cfg := &c.cfg
		cfg.BitsPerCell = pick(rng, 1, 2)
		cfg.L3LineB = pick(rng, 64, 128, 256)
		cfg.Chips = pick(rng, 4, 8, 16)
		cfg.IterMax = pick(rng, 2, 16, 1<<30)
		cfg.TruncateTailCells = pick(rng, 0, 8, 1000)
		cells := cfg.CellsPerLine()
		c.base = mapping.New(pick(rng, sim.MapNaive, sim.MapVIM, sim.MapBIM), cells, cfg.Chips)
		c.tab = mapping.NewTable(c.base, cells, cfg.Chips)
		c.seed = rng.Uint64()
		for i := 0; i < buildsPerCase; i++ {
			var k refCall
			switch k.sel = rng.Intn(3); k.sel {
			case 1:
				k.offset = rng.Intn(cells)
			case 2:
				k.offset, k.upper = rng.Intn(cells), rng.Intn(2) == 1
			}
			k.truncate = rng.Intn(2) == 1
			k.addr = rng.Uint64() &^ 0xFF
			switch rng.Intn(4) {
			case 0, 1, 2:
				if rng.Intn(2) == 0 {
					k.old = randomLine(rng, nil, cfg.L3LineB)
				}
				k.new = randomLine(rng, k.old, cfg.L3LineB)
				equal := rng.Intn(5) == 0
				if equal {
					k.new = make([]byte, cfg.L3LineB)
					copy(k.new, k.old)
				}
				k.what = fmt.Sprintf("Build(old nil=%v, new==old %v)", k.old == nil, equal)
			default:
				k.fromCells = true
				n := rng.Intn(cells + 1)
				perm := make([]int, cells)
				rng.Perm(perm)
				k.changed = perm[:n]
				if rng.Intn(2) == 0 {
					k.changed = refDiffCells(nil, nil, randomLine(rng, nil, cfg.L3LineB), cfg.BitsPerCell)
				}
				if rng.Intn(2) == 0 {
					k.targets = make([]CellState, len(k.changed))
					for j := range k.targets {
						k.targets[j] = CellState(rng.Intn(1 << cfg.BitsPerCell))
					}
				}
				k.what = fmt.Sprintf("BuildFromCells(%d cells, targets nil=%v)", len(k.changed), k.targets == nil)
			}
			c.builds = append(c.builds, k)
		}
		fn(&c)
	}
}

// describe names a case's configuration for a failure message.
func (c *refCase) describe(k refCall) string {
	cfg := &c.cfg
	return fmt.Sprintf("%s (bits %d, line %dB, chips %d, IterMax %d, tail %d, truncate %v)",
		k.what, cfg.BitsPerCell, cfg.L3LineB, cfg.Chips, cfg.IterMax, cfg.TruncateTailCells, k.truncate)
}

// TestBuildMatchesReference drives one Builder per case through several
// back-to-back builds and compares every exported field against the
// reference on a fresh profile. Every build, across all cases, rebuilds one
// profile in place, so rows and group tables left by a larger write, or by
// another chip count, show as stale state.
func TestBuildMatchesReference(t *testing.T) {
	var got WriteProfile
	n := 0
	forEachRefCase(func(c *refCase) {
		b := NewBuilder(&c.cfg, sim.NewRNG(c.seed))
		refRNG := sim.NewRNG(c.seed)
		for i, k := range c.builds {
			mapFn := c.mapFn(k)
			var want *WriteProfile
			if k.fromCells {
				b.BuildFromCells(&got, k.addr, k.changed, k.targets, mapFn, k.truncate)
				want = refBuildFromCells(&c.cfg, refRNG, k.addr, k.changed, k.targets, mapFn, k.truncate)
			} else {
				b.Build(&got, k.addr, k.old, k.new, mapFn, k.truncate)
				want = refBuild(&c.cfg, k.addr, k.old, k.new, mapFn, k.truncate)
			}
			if d := profileMismatch(&got, want); d != "" {
				t.Fatalf("case %d build %d: %s: %s", n, i, c.describe(k), d)
			}
		}
		n++
	})
}

// TestDiffCellsMatchesReference covers line lengths that are not a whole
// number of 64-bit words, and appending to a non-empty dst.
func TestDiffCellsMatchesReference(t *testing.T) {
	rng := sim.NewRNG(5)
	for c := 0; c < 2000; c++ {
		bpc := pick(rng, 1, 2)
		n := rng.Intn(72)
		var old []byte
		if rng.Intn(3) > 0 {
			old = randomLine(rng, nil, n)
		}
		new := randomLine(rng, old, n)
		prefix := []int{-1, -2}[:rng.Intn(3)]
		got := DiffCells(append([]int(nil), prefix...), old, new, bpc)
		want := refDiffCells(append([]int(nil), prefix...), old, new, bpc)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (%dB, bits %d): DiffCells = %v, want %v", c, n, bpc, got, want)
		}
		if got, want := CountChangedCells(old, new, bpc), refCountChangedCells(old, new, bpc); got != want {
			t.Fatalf("case %d (%dB, bits %d): CountChangedCells = %d, want %d", c, n, bpc, got, want)
		}
	}
}

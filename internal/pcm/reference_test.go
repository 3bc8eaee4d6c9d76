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
	cells := refDiffCells(nil, old, new, cfg.BitsPerCell)
	targets := make([]CellState, len(cells))
	for i, cell := range cells {
		targets[i] = Cell(new, cell, cfg.BitsPerCell)
	}
	iters := NewIterModel(cfg, sim.NewRNG(contentHash(lineAddr, old, new)))
	return refBuildFromCells(cfg, iters, lineAddr, cells, targets, mapFn, truncate)
}

func refBuildFromCells(cfg *sim.Config, iters *IterModel, lineAddr uint64, cells []int, targets []CellState, mapFn mapping.Func, truncate bool) *WriteProfile {
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
			target = CellState(iters.rng.Intn(4))
		}
		t := iters.Draw(target)
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

// TestBuildMatchesReference drives one Builder per case through several
// back-to-back builds, releasing each profile before the next so pooled
// rows and group tables are reused, and compares every exported field
// against the reference on a fresh profile.
func TestBuildMatchesReference(t *testing.T) {
	const cases, buildsPerCase = 1024, 4
	for c := 0; c < cases; c++ {
		rng := sim.NewRNG(uint64(c))
		cfg := sim.DefaultConfig()
		cfg.BitsPerCell = pick(rng, 1, 2)
		cfg.L3LineB = pick(rng, 64, 128, 256)
		cfg.Chips = pick(rng, 4, 8, 16)
		cfg.IterMax = pick(rng, 2, 16, 1<<30)
		cfg.TruncateTailCells = pick(rng, 0, 8, 1000)
		cells := cfg.CellsPerLine()
		base := mapping.New(pick(rng, sim.MapNaive, sim.MapVIM, sim.MapBIM), cells, cfg.Chips)
		tab := mapping.NewTable(base, cells, cfg.Chips)

		seed := rng.Uint64()
		b := NewBuilder(&cfg, sim.NewRNG(seed))
		refRNG := sim.NewRNG(seed)
		refRNG.Uint64() // NewBuilder's own draw
		refIters := NewIterModel(&cfg, refRNG)

		for i := 0; i < buildsPerCase; i++ {
			mapFn := base
			switch rng.Intn(3) {
			case 1:
				mapFn = tab.Select(rng.Intn(cells), cfg.Chips, false, false)
			case 2:
				mapFn = tab.Select(rng.Intn(cells), cfg.Chips, true, rng.Intn(2) == 1)
			}
			truncate := rng.Intn(2) == 1
			addr := rng.Uint64() &^ 0xFF
			var got, want *WriteProfile
			var what string
			switch rng.Intn(4) {
			case 0, 1, 2:
				var old []byte
				if rng.Intn(2) == 0 {
					old = randomLine(rng, nil, cfg.L3LineB)
				}
				new := randomLine(rng, old, cfg.L3LineB)
				equal := rng.Intn(5) == 0
				if equal {
					new = make([]byte, cfg.L3LineB)
					copy(new, old)
				}
				what = fmt.Sprintf("Build(old nil=%v, new==old %v)", old == nil, equal)
				got = b.Build(addr, old, new, mapFn, truncate)
				want = refBuild(&cfg, addr, old, new, mapFn, truncate)
			default:
				n := rng.Intn(cells + 1)
				perm := make([]int, cells)
				rng.Perm(perm)
				changed := perm[:n]
				if rng.Intn(2) == 0 {
					changed = refDiffCells(nil, nil, randomLine(rng, nil, cfg.L3LineB), cfg.BitsPerCell)
				}
				var targets []CellState
				if rng.Intn(2) == 0 {
					targets = make([]CellState, len(changed))
					for j := range targets {
						targets[j] = CellState(rng.Intn(1 << cfg.BitsPerCell))
					}
				}
				what = fmt.Sprintf("BuildFromCells(%d cells, targets nil=%v)", len(changed), targets == nil)
				got = b.BuildFromCells(addr, changed, targets, mapFn, truncate)
				want = refBuildFromCells(&cfg, refIters, addr, changed, targets, mapFn, truncate)
			}
			if d := profileMismatch(got, want); d != "" {
				t.Fatalf("case %d build %d: %s (bits %d, line %dB, chips %d, IterMax %d, tail %d, truncate %v): %s",
					c, i, what, cfg.BitsPerCell, cfg.L3LineB, cfg.Chips, cfg.IterMax, cfg.TruncateTailCells, truncate, d)
			}
			b.Release(got)
		}
	}
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

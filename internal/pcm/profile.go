package pcm

import (
	"math"
	"slices"

	"fpb/internal/mapping"
	"fpb/internal/sim"
)

// MaxMultiResetSplit is the largest RESET split factor profiles precompute
// group counts for (the paper evaluates m up to 4 in Fig. 17).
const MaxMultiResetSplit = 4

// mrGroupGranularity is the static grouping granularity for Multi-RESET:
// cells are assigned to RESET groups by (cell/granularity) mod m. This is
// the paper's low-overhead static grouping choice ("groups cells no matter
// if they are changed or not"), realized as an interleaved partition so no
// extra per-write hardware state is needed.
const mrGroupGranularity = 4

// WriteProfile captures everything the power budgeter and timing model need
// to know about one MLC line write, computed once when the bridge chip does
// its read-before-write comparison:
//
//   - which chips the changed cells live on (under the active cell mapping),
//   - how many program-and-verify iterations the write takes (iteration 1
//     is the RESET pulse; iterations 2..TotalIters are SET pulses),
//   - how many cells remain unfinished after each iteration, per chip —
//     exactly the per-iteration feedback FPB-IPM uses to reclaim tokens.
type WriteProfile struct {
	LineAddr uint64

	// Changed is the number of cells whose state differs (differential
	// write: unchanged cells are not programmed).
	Changed int

	// PerChip[c] is the number of changed cells stored on chip c.
	PerChip []int

	// TotalIters is the number of iterations the slowest cell needs,
	// including the leading RESET. A write with zero changed cells has
	// TotalIters 1 (a single verify round) and zero power demand.
	TotalIters int

	// RemainTotal[k] is the number of changed cells still unfinished
	// after iteration k (k = 0..TotalIters; RemainTotal[0] == Changed,
	// RemainTotal[TotalIters] == 0 unless truncated cells are counted,
	// which they are not — ECC covers them).
	RemainTotal []int

	// RemainPerChip[k][c] is the per-chip breakdown of RemainTotal[k].
	RemainPerChip [][]int

	// MRGroups[m][c][g] is the number of changed cells of chip c in
	// static RESET group g when the RESET is split into m sub-iterations
	// (m = 2..MaxMultiResetSplit; indices 0 and 1 are nil).
	MRGroups [][][]int

	// Truncated is the number of slow cells cut off by write truncation
	// (they are left to ECC; see Jiang et al. HPCA'12).
	Truncated int
}

// Builder constructs WriteProfiles. It owns scratch buffers and the
// per-write RNG stream, so one Builder must not be shared across
// goroutines; builders of one iteration law share the process's draw memo.
//
// The caller owns each profile: Build and BuildFromCells overwrite the one
// they are given and reuse its slices, so rebuilding a kept profile is
// allocation-free once its slices have grown to the write mix.
type Builder struct {
	cfg      *sim.Config
	model    *IterModel
	rng      *sim.RNG  // BuildFromCells' stream
	writeRNG *sim.RNG  // reseeded per Build from the write's content hash
	memo     *drawMemo // the law's draw memo; nil when a draw may not fit a byte
	cells    []int     // scratch: Build's changed cells
	iters    []int     // scratch: each changed cell's iterations
	mid      []int     // scratch: the indices into cells of '01'/'10' cells
	kinds    []byte    // scratch: one bit per mid cell, set when it targets '10'
	hist     []int     // scratch: per-(iteration, chip) cell counts
}

// NewBuilder returns a profile builder for the configuration. rng is the
// stream BuildFromCells draws from; Build draws from each write's own.
func NewBuilder(cfg *sim.Config, rng *sim.RNG) *Builder {
	b := &Builder{
		cfg:      cfg,
		model:    NewIterModel(cfg),
		rng:      rng,
		writeRNG: sim.NewRNG(0),
	}
	if cfg.IterMax <= math.MaxUint8 {
		b.memo = drawMemoFor(b.model.law())
	}
	return b
}

// resizeInts returns s resized to n elements, zeroed, reusing its backing
// array when capacity allows.
func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Build overwrites p with the profile for writing new over old (old nil =
// all-zero line) with the given cell-to-chip mapping, and returns p.
// truncate enables write truncation with the configured tail threshold.
//
// The per-cell iteration draws are seeded from (lineAddr, old, new): the
// same physical write is equally hard under every scheme and on every
// issue attempt, exactly as a shared trace would make it. Without this,
// cross-scheme comparisons would carry draw-sequence noise and, e.g., IPM
// could spuriously beat Ideal. The draws of a write already built under
// the same law come from the draw memo.
func (b *Builder) Build(p *WriteProfile, lineAddr uint64, old, new []byte, mapFn mapping.Func, truncate bool) *WriteProfile {
	return b.build(p, lineAddr, contentHash(lineAddr, old, new), old, new, mapFn, truncate)
}

// build is Build drawing from the stream seed names.
func (b *Builder) build(p *WriteProfile, lineAddr, seed uint64, old, new []byte, mapFn mapping.Func, truncate bool) *WriteProfile {
	bits := b.cfg.BitsPerCell
	cells := DiffCells(b.cells[:0], old, new, bits)
	n := len(cells)
	iters := slices.Grow(b.iters[:0], n)[:n]
	// Every cell is stored as the k-th '01'/'10' cell (at mid[k], its '10'
	// flag at bit k of kinds) and k moves past it only if it is one, so
	// the loop takes no branch on a cell's state: a write's states are
	// random, and such a branch mispredicts on every other cell.
	mid := slices.Grow(b.mid[:0], n)[:n]
	kinds := slices.Grow(b.kinds[:0], (n+7)/8)[:(n+7)/8]
	clear(kinds)
	k := 0
	for i, cell := range cells {
		target := Cell(new, cell, bits)
		t := b.model.fixedIters(target) // 0 for '01' and '10'
		iters[i] = t
		mid[k] = i
		kinds[k/8] |= byte(target>>1&^target&1) << (k % 8) // 1 for '10' alone
		var drawn int
		if t == 0 {
			drawn = 1
		}
		k += drawn
	}
	mid, kinds = mid[:k], kinds[:(k+7)/8]
	b.cells, b.iters, b.mid, b.kinds = cells, iters, mid, kinds
	if len(mid) == 0 || (b.memo != nil && b.memo.lookup(seed, mid, iters, kinds)) {
		return b.tally(p, lineAddr, cells, iters, nil, mapFn, truncate)
	}
	// The memo did not serve the '01'/'10' cells: their iters are still 0,
	// and tally draws them from the write's stream.
	b.writeRNG.Reseed(seed)
	b.tally(p, lineAddr, cells, iters, new, mapFn, truncate)
	if b.memo != nil {
		b.memo.publish(seed, mid, iters, kinds)
	}
	return p
}

// contentHash is FNV-1a over the write's identity.
func contentHash(lineAddr uint64, old, new []byte) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h = (h ^ (lineAddr >> (8 * i) & 0xFF)) * prime
	}
	for _, x := range old {
		h = (h ^ uint64(x)) * prime
	}
	for _, x := range new {
		h = (h ^ uint64(x)) * prime
	}
	return h
}

// BuildFromCells overwrites p with the profile when the changed cell set
// is already known, and returns p. targets supplies the new cell states
// (indexed by cell); it may be nil, in which case states are drawn
// uniformly (used by synthetic stress tests). The states and iterations
// are drawn from the builder's own stream, without the draw memo.
func (b *Builder) BuildFromCells(p *WriteProfile, lineAddr uint64, cells []int, targets []CellState, mapFn mapping.Func, truncate bool) *WriteProfile {
	iters := slices.Grow(b.iters[:0], len(cells))[:len(cells)]
	for i := range cells {
		var target CellState
		if targets != nil {
			target = targets[i]
		} else {
			target = CellState(b.rng.Intn(4))
		}
		iters[i] = b.model.Draw(b.rng, target)
	}
	b.iters = iters
	return b.tally(p, lineAddr, cells, iters, nil, mapFn, truncate)
}

// tally overwrites p with the profile of cells, the i-th of which needs
// iters[i] iterations, and returns p. An iters entry of 0 is a '01'/'10'
// cell still to draw: tally draws it from writeRNG, its target read from
// new, and stores the draw in iters. Drawing in the same pass as the
// tally, as the build did before the draw memo, keeps a build that misses
// the memo as fast as it was.
//
// One pass over the cells tallies the per-chip counts, a per-(iteration,
// chip) histogram and the Multi-RESET groups; the remaining counts are the
// histogram's suffix sums.
func (b *Builder) tally(p *WriteProfile, lineAddr uint64, cells, iters []int, new []byte, mapFn mapping.Func, truncate bool) *WriteProfile {
	chips := b.cfg.Chips
	p.LineAddr = lineAddr
	p.Changed = len(cells)
	p.Truncated = 0
	p.PerChip = resizeInts(p.PerChip, chips)
	p.resetMRGroups(chips)
	// The split factors 2..MaxMultiResetSplit are spelled out so each group
	// index is a division by a constant.
	mr2, mr3, mr4 := p.MRGroups[2], p.MRGroups[3], p.MRGroups[4]
	// hist[(t-1)*chips+c] counts chip c's cells that need t iterations. It
	// grows with the write's largest draw, never to IterMax.
	hist := b.hist[:0]
	iters = iters[:len(cells)]
	for i, cell := range cells {
		t := iters[i]
		if t == 0 {
			t = b.model.draw(b.writeRNG, Cell(new, cell, b.cfg.BitsPerCell))
			iters[i] = t
		}
		chip := mapFn(cell)
		p.PerChip[chip]++
		if n := t * chips; n > len(hist) {
			hist = growInts(hist, n)
		}
		hist[(t-1)*chips+chip]++
		g := uint(cell) / mrGroupGranularity
		mr2[chip][g%2]++
		mr3[chip][g%3]++
		mr4[chip][g%4]++
	}
	b.hist = hist
	// A cell needing t iterations is unfinished after iterations 0..t-1,
	// so row k of the suffix sums counts the cells with t > k.
	for i := len(hist) - chips - 1; i >= 0; i-- {
		hist[i] += hist[i+chips]
	}
	total := min(max(len(hist)/chips, 1), b.cfg.IterMax)
	p.TotalIters = total
	p.RemainTotal = resizeInts(p.RemainTotal, total+1)
	if cap(p.RemainPerChip) < total+1 {
		rows := make([][]int, total+1)
		copy(rows, p.RemainPerChip[:cap(p.RemainPerChip)])
		p.RemainPerChip = rows
	} else {
		p.RemainPerChip = p.RemainPerChip[:total+1]
	}
	for k := range p.RemainPerChip {
		row := resizeInts(p.RemainPerChip[k], chips)
		p.RemainPerChip[k] = row
		if k*chips < len(hist) {
			copy(row, hist[k*chips:])
			for _, n := range row {
				p.RemainTotal[k] += n
			}
		}
	}

	if truncate && b.cfg.TruncateTailCells > 0 {
		p.applyTruncation(b.cfg.TruncateTailCells)
	}
	return p
}

// resetMRGroups zeroes the Multi-RESET group tables, allocating the
// [m][chip][group] shape when the profile has none for this chip count.
func (p *WriteProfile) resetMRGroups(chips int) {
	if p.MRGroups == nil || len(p.MRGroups[2]) != chips {
		p.MRGroups = make([][][]int, MaxMultiResetSplit+1)
		for m := 2; m <= MaxMultiResetSplit; m++ {
			g := make([][]int, chips)
			for c := range g {
				g[c] = make([]int, m)
			}
			p.MRGroups[m] = g
		}
		return
	}
	for m := 2; m <= MaxMultiResetSplit; m++ {
		for _, counts := range p.MRGroups[m] {
			clear(counts)
		}
	}
}

// growInts extends s to n elements, zeroing the added ones.
func growInts(s []int, n int) []int {
	k := len(s)
	s = slices.Grow(s, n-k)[:n]
	clear(s[k:])
	return s
}

// applyTruncation implements write truncation: the write ends at the first
// iteration after which at most tail cells remain; those cells are left for
// ECC to correct.
func (p *WriteProfile) applyTruncation(tail int) {
	for k := 1; k < p.TotalIters; k++ {
		if p.RemainTotal[k] <= tail {
			p.Truncated = p.RemainTotal[k]
			p.TotalIters = k
			p.RemainTotal = p.RemainTotal[:k+1]
			p.RemainPerChip = p.RemainPerChip[:k+1]
			p.RemainTotal[k] = 0
			for c := range p.RemainPerChip[k] {
				p.RemainPerChip[k][c] = 0
			}
			return
		}
	}
}

// Duration returns the write's latency in cycles given the pulse timings:
// one RESET (possibly split into mrSplit sub-RESETs) plus TotalIters-1 SETs.
func (p *WriteProfile) Duration(cfg *sim.Config, mrSplit int) sim.Cycle {
	if p.TotalIters <= 0 {
		return cfg.ResetCycles
	}
	resets := 1
	if mrSplit > 1 {
		resets = mrSplit
	}
	return sim.Cycle(resets)*cfg.ResetCycles + sim.Cycle(p.TotalIters-1)*cfg.SetCycles
}

// SetDemandAt returns the number of cells receiving a SET pulse at SET
// iteration j (j = 2..TotalIters): the cells unfinished after iteration j-1.
func (p *WriteProfile) SetDemandAt(j int) int {
	if j < 2 || j > p.TotalIters {
		return 0
	}
	return p.RemainTotal[j-1]
}

// SetDemandPerChipAt is SetDemandAt broken down per chip.
func (p *WriteProfile) SetDemandPerChipAt(j int) []int {
	if j < 2 || j > p.TotalIters {
		return nil
	}
	return p.RemainPerChip[j-1]
}

package pcm

import (
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

	// pooled marks a profile that has been returned to its Builder's pool
	// and must not be used until newProfile hands it out again.
	pooled bool
}

// Builder constructs WriteProfiles. It owns the iteration model RNG stream
// and scratch buffers, so one Builder must not be shared across goroutines.
//
// Profiles are pooled: Release returns one to the builder for reuse, which
// makes steady-state profile construction allocation-free. A caller that
// never releases simply pays the allocations the pool would have avoided.
type Builder struct {
	cfg      *sim.Config
	iters    *IterModel
	scratch  []int
	seed     uint64
	writeRNG *sim.RNG    // reseeded per Build from the write's content hash
	targets  []CellState // scratch for Build's target states
	iterOf   []int       // scratch: per-cell iteration counts
	chipOf   []int       // scratch: per-cell chip indices
	free     []*WriteProfile
}

// NewBuilder returns a profile builder for the configuration.
func NewBuilder(cfg *sim.Config, rng *sim.RNG) *Builder {
	return &Builder{
		cfg:      cfg,
		iters:    NewIterModel(cfg, rng),
		seed:     rng.Uint64(),
		writeRNG: sim.NewRNG(0),
	}
}

// Release returns a profile to the builder's pool. The profile must not be
// used afterwards; releasing nil or an already pooled profile is a no-op.
func (b *Builder) Release(p *WriteProfile) {
	if p == nil || p.pooled {
		return
	}
	p.pooled = true
	b.free = append(b.free, p)
}

// newProfile pops the pool or allocates a fresh profile.
func (b *Builder) newProfile() *WriteProfile {
	if n := len(b.free); n > 0 {
		p := b.free[n-1]
		b.free = b.free[:n-1]
		p.pooled = false
		return p
	}
	return &WriteProfile{}
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

// Build computes the profile for writing new over old (old nil = all-zero
// line) with the given cell-to-chip mapping. truncate enables write
// truncation with the configured tail threshold.
//
// The per-cell iteration draws are seeded from (lineAddr, old, new): the
// same physical write is equally hard under every scheme and on every
// issue attempt, exactly as a shared trace would make it. Without this,
// cross-scheme comparisons would carry draw-sequence noise and, e.g., IPM
// could spuriously beat Ideal.
func (b *Builder) Build(lineAddr uint64, old, new []byte, mapFn mapping.Func, truncate bool) *WriteProfile {
	b.scratch = DiffCells(b.scratch[:0], old, new, b.cfg.BitsPerCell)
	b.writeRNG.Reseed(contentHash(lineAddr, old, new))
	saved := b.iters.rng
	b.iters.rng = b.writeRNG
	p := b.buildFromCells(lineAddr, b.scratch, new, mapFn, truncate)
	b.iters.rng = saved
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

// BuildFromCells computes the profile when the changed cell set is already
// known. targets supplies the new cell states (indexed by cell); it may be
// nil, in which case states are drawn uniformly (used by synthetic
// stress tests).
func (b *Builder) BuildFromCells(lineAddr uint64, cells []int, targets []CellState, mapFn mapping.Func, truncate bool) *WriteProfile {
	p := b.newProfile()
	p.LineAddr = lineAddr
	p.Changed = len(cells)
	p.Truncated = 0
	p.PerChip = resizeInts(p.PerChip, b.cfg.Chips)
	maxIters := b.cfg.IterMax
	b.iterOf = resizeInts(b.iterOf, len(cells))
	b.chipOf = resizeInts(b.chipOf, len(cells))
	iterOf, chipOf := b.iterOf, b.chipOf
	total := 1
	for i, cell := range cells {
		var target CellState
		if targets != nil {
			target = targets[i]
		} else {
			target = CellState(b.iters.rng.Intn(4))
		}
		t := b.iters.Draw(target)
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
	if cap(p.RemainPerChip) < total+1 {
		rows := make([][]int, total+1)
		copy(rows, p.RemainPerChip[:cap(p.RemainPerChip)])
		p.RemainPerChip = rows
	} else {
		p.RemainPerChip = p.RemainPerChip[:total+1]
	}
	for k := range p.RemainPerChip {
		p.RemainPerChip[k] = resizeInts(p.RemainPerChip[k], b.cfg.Chips)
	}
	for i := range cells {
		t := iterOf[i]
		// The cell is unfinished after iterations 0..t-1.
		for k := 0; k < t && k <= total; k++ {
			p.RemainTotal[k]++
			p.RemainPerChip[k][chipOf[i]]++
		}
	}

	// Multi-RESET static groups (reuse the [m][chip][group] shape across
	// pooled profiles: the chip count is fixed per Builder).
	if p.MRGroups == nil {
		p.MRGroups = make([][][]int, MaxMultiResetSplit+1)
		for m := 2; m <= MaxMultiResetSplit; m++ {
			g := make([][]int, b.cfg.Chips)
			for c := range g {
				g[c] = make([]int, m)
			}
			p.MRGroups[m] = g
		}
	} else {
		for m := 2; m <= MaxMultiResetSplit; m++ {
			for _, counts := range p.MRGroups[m] {
				clear(counts)
			}
		}
	}
	for m := 2; m <= MaxMultiResetSplit; m++ {
		g := p.MRGroups[m]
		for i, cell := range cells {
			g[chipOf[i]][(cell/mrGroupGranularity)%m]++
		}
	}

	if truncate && b.cfg.TruncateTailCells > 0 {
		p.applyTruncation(b.cfg.TruncateTailCells)
	}
	return p
}

// buildFromCells is Build's shared tail; cells index into the line, and new
// supplies target states.
func (b *Builder) buildFromCells(lineAddr uint64, cells []int, new []byte, mapFn mapping.Func, truncate bool) *WriteProfile {
	if cap(b.targets) < len(cells) {
		b.targets = make([]CellState, len(cells))
	}
	b.targets = b.targets[:len(cells)]
	for i, cell := range cells {
		b.targets[i] = Cell(new, cell, b.cfg.BitsPerCell)
	}
	return b.BuildFromCells(lineAddr, cells, b.targets, mapFn, truncate)
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

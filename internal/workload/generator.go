package workload

import (
	"math"

	"fpb/internal/sim"
	"fpb/internal/trace"
)

// Address-space layout: each core owns a disjoint region so private caches
// and the shared PCM never alias across cores.
const (
	coreSpaceShift = 38 // 256 GB per core
	hotBase        = 0x0000_0000
	// The stream regions are 1 GB apart. A region spans twice the L3
	// (STREAM apps) and at least 4096 lines, and sim.MaxL3SizeMB and
	// sim.MaxL3LineB bound both so that the two never overlap.
	streamReadBase = 0x4000_0000 // 1 GB into the core's space
	streamWriteB   = 0x8000_0000 // 2 GB in
	hotSpanBytes   = 1 << 20     // 1 MB: fits comfortably in L2
	// fixedFootprintBytes is the per-stream working set of non-STREAM
	// benchmarks: 64 MB per region (128 MB per core with both streams) —
	// far beyond the 32 MB Table 1 LLC, well inside a 128 MB one.
	fixedFootprintBytes = 64 << 20
)

// Generator produces one core's infinite access stream realizing its
// profile: streaming loads and stores at L3-line granularity over regions
// larger than the L3 (so they always miss after warm-up) plus
// cache-resident "hot" accesses. It implements trace.Source.
type Generator struct {
	prof   CoreProfile
	cfg    *sim.Config
	rng    *sim.RNG
	core   int
	gapMul float64 // mean gap between accesses

	pStream float64 // P(streaming access)
	pWrite  float64 // P(write | streaming)

	readPos, writePos uint64
	spanLines         uint64
}

// refLineBytes is the memory line size Table 2's R/W-PKI targets assume.
// Smaller lines split the same traffic over more line writebacks (and
// fills) — the paper's "for large line sizes the number of line writes are
// reduced but each line write changes more cells" (Section 6.4.1) — but
// dirty data is spatially clustered in real traces, so the multiplier is
// sub-linear; lineScaleExp = 0.5 gives 2x line writes at 64 B instead of
// the locality-free 4x.
const (
	refLineBytes = 256
	lineScaleExp = 0.5
)

// NewGenerator builds the stream for core (0-based) of the workload.
func NewGenerator(prof CoreProfile, cfg *sim.Config, core int, rng *sim.RNG) *Generator {
	lineScale := math.Pow(float64(refLineBytes)/float64(cfg.L3LineB), lineScaleExp)
	rpki := prof.RPKI * lineScale
	wpki := prof.WPKI * lineScale
	apki := rpki + prof.HotAPKI // total accesses per kilo-instruction
	if apki <= 0 {
		apki = 0.001
	}
	// Streaming stores produce one fill read and one writeback each, so
	// store-stream APKI = WPKI and load-stream APKI = RPKI − WPKI.
	loadStream := rpki - wpki
	if loadStream < 0 {
		loadStream = 0
	}
	g := &Generator{
		prof:    prof,
		cfg:     cfg,
		rng:     rng,
		core:    core,
		gapMul:  1000/apki - 1,
		pStream: rpki / apki,
	}
	if rpki > 0 {
		g.pWrite = wpki / (loadStream + wpki)
	}
	// Stream footprint: STREAM-class kernels sweep arrays far larger
	// than any cache, so their regions scale with the L3 (always miss).
	// Other benchmarks have a *fixed* footprint: large enough to thrash
	// the Table 1 LLC, but capturable by a much larger one — this is
	// what produces the paper's Fig. 20 result that a 128 MB/core LLC
	// absorbs most non-streaming traffic while STREAM keeps missing.
	scaled := uint64(cfg.L3SizeMB) * 1024 * 1024 / uint64(cfg.L3LineB) * 2
	if prof.Value == ValueStream {
		g.spanLines = scaled
	} else {
		g.spanLines = fixedFootprintBytes / uint64(cfg.L3LineB)
	}
	if g.spanLines < 4096 {
		g.spanLines = 4096
	}
	// Desynchronize cores' stream phases.
	g.readPos = rng.Uint64n(g.spanLines)
	g.writePos = rng.Uint64n(g.spanLines)
	return g
}

// base returns the core's address-space base.
func (g *Generator) base() uint64 { return uint64(g.core) << coreSpaceShift }

// StreamReadRegion returns the [start, span) byte range of the streaming
// load region, for cache prefill.
func (g *Generator) StreamReadRegion() (start, span uint64) {
	return g.base() + streamReadBase, g.spanLines * uint64(g.cfg.L3LineB)
}

// StreamWriteRegion returns the streaming store region.
func (g *Generator) StreamWriteRegion() (start, span uint64) {
	return g.base() + streamWriteB, g.spanLines * uint64(g.cfg.L3LineB)
}

// HotRegion returns the cache-resident region.
func (g *Generator) HotRegion() (start, span uint64) {
	return g.base() + hotBase, hotSpanBytes
}

// ReadCursor returns the current line position of the streaming-load walk
// (used to align cache prefill with the measurement window).
func (g *Generator) ReadCursor() uint64 { return g.readPos }

// WriteCursor returns the current line position of the streaming-store walk.
func (g *Generator) WriteCursor() uint64 { return g.writePos }

// SpanLines returns the length of each stream region in L3 lines.
func (g *Generator) SpanLines() uint64 { return g.spanLines }

// Next implements trace.Source; the stream never ends.
func (g *Generator) Next() (trace.Access, bool) {
	gap := uint32(0)
	if g.gapMul > 0 {
		// Uniform over [0, 2*mean]: mean gap preserved, deterministic
		// per-core stream.
		gap = uint32(g.rng.Uint64n(uint64(2*g.gapMul) + 1))
	}
	lineB := uint64(g.cfg.L3LineB)
	if g.rng.Float64() < g.pStream {
		if g.rng.Float64() < g.pWrite {
			addr := g.base() + streamWriteB + (g.writePos%g.spanLines)*lineB
			g.writePos++
			return trace.Access{Gap: gap, Write: true, Addr: addr}, true
		}
		addr := g.base() + streamReadBase + (g.readPos%g.spanLines)*lineB
		g.readPos++
		return trace.Access{Gap: gap, Write: false, Addr: addr}, true
	}
	// Hot access: uniform within the resident region, mostly loads.
	off := g.rng.Uint64n(hotSpanBytes/64) * 64
	return trace.Access{
		Gap:   gap,
		Write: g.rng.Bernoulli(0.3),
		Addr:  g.base() + hotBase + off,
	}, true
}

var _ trace.Source = (*Generator)(nil)

package obs

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket distribution safe for concurrent use: values
// are counted into the first bucket whose upper bound is >= the observation,
// with an implicit +Inf bucket catching the tail. Buckets are fixed at
// construction so snapshots are deterministic: two histograms fed the same
// observations in any order produce identical snapshots.
//
// The zero value is not usable; construct with NewHistogramBuckets or
// Registry.Histogram. All methods are no-ops (or zero) on a nil *Histogram
// so optional instrumentation needs no guards.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // math.Float64bits, CAS-updated
}

// LatencyBucketsMs is the default bucket layout for millisecond latencies:
// sub-millisecond to one minute, roughly logarithmic.
var LatencyBucketsMs = []float64{
	0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500,
	1000, 2500, 5000, 10000, 30000, 60000,
}

// ExpBuckets returns n ascending bounds starting at start, each factor
// times the previous — the usual way to cover several orders of magnitude
// with few buckets.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		return nil
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// NewHistogramBuckets builds a histogram over the given ascending upper
// bounds (a copy is taken). Non-ascending bounds panic: silently reordering
// would corrupt every downstream percentile.
func NewHistogramBuckets(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// Binary search for the first bound >= v (len(bounds) is the +Inf
	// bucket): layouts range from tens of buckets to the memory
	// controller's 16k unit-width latency buckets.
	i, j := 0, len(h.bounds)
	for i < j {
		m := int(uint(i+j) >> 1)
		if v > h.bounds[m] {
			i = m + 1
		} else {
			j = m
		}
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count reports the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Mean reports the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-quantile (0 < q <= 1), quantized to bucket
// upper bounds: it returns the upper bound of the bucket holding the
// rank-q observation. Observations in the +Inf bucket report the largest
// finite bound. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 || q <= 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			break
		}
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// HistogramSnapshot is a consistent-enough point-in-time copy: each bucket
// is loaded once, in order. Buckets are per-bound observation counts (not
// cumulative); Count is their total plus the +Inf tail.
type HistogramSnapshot struct {
	Bounds []float64 // ascending upper bounds; the +Inf bucket is Buckets[len(Bounds)]
	Counts []uint64  // len(Bounds)+1 per-bucket counts
	Count  uint64
	Sum    float64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

package mem

import (
	"testing"

	"fpb/internal/sim"
)

// TestWriteLatencyPercentilesPinned feeds fixed write-latency sets (cycles)
// through the controller's histogram and pins WriteLatencyPercentiles to
// literal values, including latencies past the histogram's range, which
// report as (latMaxBuckets+1)*latBucketCycles.
func TestWriteLatencyPercentilesPinned(t *testing.T) {
	const top = (latMaxBuckets + 1) * latBucketCycles // first overflow latency
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	// Shaped like lbm_m's write latencies, with a 2% tail past the range.
	var lbmLike []sim.Cycle
	for i := 0; i < 20_000; i++ {
		if r := next(); i%50 == 0 {
			lbmLike = append(lbmLike, sim.Cycle(top+r%top))
		} else {
			lbmLike = append(lbmLike, sim.Cycle(40_000+r%150_000))
		}
	}
	var uniform []sim.Cycle
	for i := 0; i < 5_000; i++ {
		uniform = append(uniform, sim.Cycle(next()%top))
	}
	cases := []struct {
		name          string
		lats          []sim.Cycle
		p50, p95, p99 float64
	}{
		{"empty", nil, 0, 0, 0},
		{"zero", []sim.Cycle{0}, 0, 0, 0},
		{"bucket edges", []sim.Cycle{0, 1, 63, 64, 65, 127, 128, 4095, 4096, 50_000, 96_000, 177_000}, 64, 176960, 176960},
		{"overflow edge", []sim.Cycle{top - latBucketCycles - 1, top - latBucketCycles, top - 1, top, top + 1, 5 * top}, 1048576, 1048640, 1048640},
		{"all overflow", []sim.Cycle{top, 2 * top, 10 * top, 1 << 40}, 1048640, 1048640, 1048640},
		{"lbm-like", lbmLike, 116352, 185280, 1048640},
		{"uniform", uniform, 518464, 995520, 1035456},
	}
	for _, tc := range cases {
		_, c, _ := newCtl(t, sim.SchemeIdeal, nil)
		for _, lat := range tc.lats {
			c.recordWriteLatency(lat)
		}
		p50, p95, p99 := c.WriteLatencyPercentiles()
		if p50 != tc.p50 || p95 != tc.p95 || p99 != tc.p99 {
			t.Errorf("%s: percentiles = %v/%v/%v, want %v/%v/%v", tc.name, p50, p95, p99, tc.p50, tc.p95, tc.p99)
		}
	}
}

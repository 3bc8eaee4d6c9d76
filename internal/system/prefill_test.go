package system

import (
	"testing"

	"fpb/internal/cache"
	"fpb/internal/sim"
	"fpb/internal/workload"
)

// TestBehindWraps pins the stream-line arithmetic prefill inserts by: the
// line k steps behind cursor line cur-1 is (cur-1-k) mod span, also when
// k reaches a span that is not a power of two (a lapping stream at a
// 192 B line), where a wrapped unsigned subtraction is off. Below span the
// result must not depend on the laps flag.
func TestBehindWraps(t *testing.T) {
	cases := []struct{ cur, span, k, want uint64 }{
		{3, 10, 0, 2},
		{3, 10, 2, 0},
		{3, 10, 3, 9},
		{3, 10, 12, 0},
		{3, 10, 13, 9},
		{0, 10, 10, 9},
		{9, 10, 25, 3},
		{0, 3, 7, 1},
		{5, 4096, 5000, 3196},
		{10316, 349525, 361323, 348042},
	}
	for _, tc := range cases {
		if got := behind(tc.cur, tc.span, tc.k, true); got != tc.want {
			t.Errorf("behind(cur %d, span %d, k %d) = %d, want %d", tc.cur, tc.span, tc.k, got, tc.want)
		}
		if tc.k < tc.span {
			if got := behind(tc.cur, tc.span, tc.k, false); got != tc.want {
				t.Errorf("behind(cur %d, span %d, k %d) without laps = %d, want %d", tc.cur, tc.span, tc.k, got, tc.want)
			}
		}
	}
}

// TestPrefillPathsAgree: on the real default-geometry inserts of a STREAM
// app (cop_m) and a fixed-footprint app (mcf_m), the L3 built on demand from
// the closed form and the set-by-set replay hold the same state.
func TestPrefillPathsAgree(t *testing.T) {
	cfg := sim.DefaultConfig()
	for _, name := range []string{"cop_m", "mcf_m"} {
		wl, err := workload.ByName(name, cfg.Cores)
		if err != nil {
			t.Fatal(err)
		}
		prof := wl.Cores[0]
		gen := workload.NewGenerator(prof, &cfg, 0, sim.NewRNG(cfg.Seed).Derive(1000).Derive(1))
		streams, rng, laps, distinct := streamInserts(&cfg, gen, prof)
		if !distinct {
			t.Fatalf("%s: default-geometry inserts are not distinct", name)
		}
		n := streams[0].N + streams[1].N
		order := make([]int, n)
		rng.Perm(order)
		pos := make([]int32, n)
		for i, k := range order {
			pos[k] = int32(i)
		}
		fill := cache.NewFilledHierarchy(&cfg, pos, streams[:]...)
		replayed := cache.NewHierarchy(&cfg)
		replay(replayed.L3(), streams, order, laps)
		if fill.Digest() != replayed.Digest() {
			t.Errorf("%s: the filled and the replayed L3 differ", name)
		}
		replayed.Release()
	}
}

// TestStreamInsertsNeedDisjointRegions: above 256 KiB L3 lines the
// generator's 4096-line minimum span outgrows the 1 GB between the load
// and store regions, so their lines may coincide and prefill must replay
// the inserts instead of writing them in closed form. Validate refuses
// such lines (sim.MaxL3LineB); the check keeps streamInserts safe on its
// own.
func TestStreamInsertsNeedDisjointRegions(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.L3LineB = 512 << 10
	wl, err := workload.ByName("mcf_m", cfg.Cores)
	if err != nil {
		t.Fatal(err)
	}
	prof := wl.Cores[0]
	gen := workload.NewGenerator(prof, &cfg, 0, sim.NewRNG(cfg.Seed).Derive(1000).Derive(1))
	if _, _, _, distinct := streamInserts(&cfg, gen, prof); distinct {
		t.Error("inserts over overlapping stream regions reported distinct")
	}
}

package system

import (
	"testing"

	"fpb/internal/cache"
	"fpb/internal/sim"
	"fpb/internal/workload"
)

// TestPrefillPathsAgree: on the real inserts of a STREAM app (cop_m) and a
// fixed-footprint app (mcf_m) at the default geometry, and of mcf_m at a
// 128 MB L3, where its streams lap their regions, the L3 NewFilled builds
// on demand must hold what a plain L3 holds after the same inserts one by
// one: insert i is the stream line k with pos[k] = i. Both start counting
// from zero, as prefill's ResetStats leaves them.
func TestPrefillPathsAgree(t *testing.T) {
	for _, tc := range []struct {
		name string
		l3MB int
		laps bool
	}{
		{"cop_m", 32, false},
		{"mcf_m", 32, false},
		{"mcf_m", 128, true},
	} {
		cfg := sim.DefaultConfig()
		cfg.L3SizeMB = tc.l3MB
		wl, err := workload.ByName(tc.name, cfg.Cores)
		if err != nil {
			t.Fatal(err)
		}
		prof := wl.Cores[0]
		gen := workload.NewGenerator(prof, &cfg, 0, sim.NewRNG(cfg.Seed).Derive(1000).Derive(1))
		streams, rng := streamInserts(&cfg, gen, prof)
		if laps := streams[0].N > streams[0].Span || streams[1].N > streams[1].Span; laps != tc.laps {
			t.Fatalf("%s at %d MB: streams lap %v, want %v", tc.name, tc.l3MB, laps, tc.laps)
		}
		pos := make([]int32, streams[0].N+streams[1].N)
		rng.InvPerm(pos)
		order := make([]uint64, len(pos))
		for k, i := range pos {
			order[i] = uint64(k)
		}
		fill := cache.NewFilledHierarchy(&cfg, pos, streams[:]...)
		plain := cache.NewHierarchy(&cfg)
		lineB := uint64(cfg.L3LineB)
		for _, k := range order {
			st := streams[0]
			if k >= st.N {
				st, k = streams[1], k-st.N
			}
			l := (st.Cur + st.Span - 1 - k%st.Span) % st.Span
			plain.L3().Access((st.Base+l)*lineB, st.Dirty)
		}
		fill.ResetStats()
		plain.ResetStats()
		if fill.Digest() != plain.Digest() {
			t.Errorf("%s at %d MB: the filled L3 differs from the same inserts made one by one", tc.name, tc.l3MB)
		}
		plain.Release()
	}
}

package system

import (
	"testing"

	"fpb/internal/cache"
	"fpb/internal/sim"
	"fpb/internal/workload"
)

// TestPrefillPathsAgree: on the real inserts of a STREAM app (cop_m) and a
// fixed-footprint app (mcf_m) at the default geometry, and of mcf_m at a
// 128 MB L3, where its streams lap their regions, a filled hierarchy with
// no walk must hold what a plain one holds after the same inserts made one
// by one into its L3: insert i is the stream line k with pos[k] = i. Both
// count from zero: the filled one starts there, and the plain one is reset.
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
		fill := cache.NewFilledHierarchy(&cfg, pos, cache.Walk{}, streams...)
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
		plain.ResetStats()
		if fill.Digest() != plain.Digest() {
			t.Errorf("%s at %d MB: the filled L3 differs from the same inserts made one by one", tc.name, tc.l3MB)
		}
		plain.Release()
	}
}

// eagerPrefill is prefill with the hot pass simulated, the reference for
// its walk: the filled hierarchy holds the stream inserts alone, a read of
// every 64 B of the hot region goes through Access on a child of it, and
// the counters are zeroed after.
func eagerPrefill(cfg *sim.Config, gen *workload.Generator, prof workload.CoreProfile) *cache.Hierarchy {
	streams, rng := streamInserts(cfg, gen, prof)
	var n uint64
	for _, st := range streams {
		n += st.N
	}
	pos := make([]int32, n)
	rng.InvPerm(pos)
	h := cache.NewFilledHierarchy(cfg, pos, cache.Walk{}, streams...).Child(cfg)
	hotStart, hotSpan := gen.HotRegion()
	for addr := hotStart; addr < hotStart+hotSpan; addr += 64 {
		h.Access(addr, false)
	}
	h.ResetStats()
	return h
}

// TestPrefillWalkMatchesAccess: on 200 random geometries — L1 lines of 64,
// 96 and 128 B, L2 and L3 lines 1-4 times the level above's, L1 of 1-32 KiB
// (a one-set cache in one trial of six) and L2 of 16 KiB-2 MiB so that the
// walk evicts, 1-16 ways, and L3 of 1-128 MB, so that fixed-footprint apps
// may lap their regions — for a random app, core and seed, the hierarchy
// prefill describes must digest like eagerPrefill's. L3s above 16 MB are
// rare, to keep the test fast.
func TestPrefillWalkMatchesAccess(t *testing.T) {
	rng := sim.NewRNG(27)
	wls := workload.All(sim.DefaultConfig().Cores)
	var laps, oneSet int
	for trial := 0; trial < 200; trial++ {
		cfg := sim.DefaultConfig()
		cfg.Seed = rng.Uint64()
		cfg.L1LineB = []int{64, 96, 128}[rng.Intn(3)]
		cfg.L2LineB = cfg.L1LineB * (1 + rng.Intn(4))
		cfg.L3LineB = cfg.L2LineB * (1 + rng.Intn(4))
		cfg.L1SizeKB = 1 + rng.Intn(32)
		cfg.L2SizeKB = 16 + rng.Intn(2048-16+1)
		switch rng.Intn(40) {
		case 0:
			cfg.L3SizeMB = 65 + rng.Intn(64)
		case 1, 2, 3:
			cfg.L3SizeMB = 17 + rng.Intn(48)
		default:
			cfg.L3SizeMB = 1 + rng.Intn(16)
		}
		cfg.L1Ways, cfg.L2Ways, cfg.L3Ways = 1+rng.Intn(16), 1+rng.Intn(16), 1+rng.Intn(16)
		cfg.L1Ways = min(cfg.L1Ways, cfg.L1SizeKB*1024/cfg.L1LineB)
		if rng.Intn(6) == 0 {
			cfg.L1SizeKB = 1
			cfg.L1Ways = 1024 / cfg.L1LineB
			oneSet++
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		wl := wls[rng.Intn(len(wls))]
		core := rng.Intn(cfg.Cores)
		prof := wl.Cores[core]
		newGen := func() *workload.Generator {
			return workload.NewGenerator(prof, &cfg, core, sim.NewRNG(cfg.Seed).Derive(uint64(1000+core)).Derive(1))
		}
		got := prefill(&cfg, newGen(), prof)
		want := eagerPrefill(&cfg, newGen(), prof)
		if got.Digest() != want.Digest() {
			t.Fatalf("trial %d: %s core %d, L1 %d KiB/%d B/%d-way, L2 %d KiB/%d B/%d-way, L3 %d MB/%d B/%d-way: the walk differs from the hot pass through Access",
				trial, wl.Name, core, cfg.L1SizeKB, cfg.L1LineB, cfg.L1Ways, cfg.L2SizeKB, cfg.L2LineB, cfg.L2Ways, cfg.L3SizeMB, cfg.L3LineB, cfg.L3Ways)
		}
		want.Release()
		if streams, _ := streamInserts(&cfg, newGen(), prof); len(streams) > 0 && (streams[0].N > streams[0].Span || streams[1].N > streams[1].Span) {
			laps++
		}
	}
	if laps < 3 || oneSet < 20 {
		t.Errorf("%d trials with lapping streams and %d with a one-set L1, want at least 3 and 20", laps, oneSet)
	}
}

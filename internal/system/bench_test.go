package system

import (
	"testing"

	"fpb/internal/cache"
	"fpb/internal/sim"
	"fpb/internal/workload"
)

// BenchmarkSimulation measures end-to-end simulator throughput: one full
// build+run of a write-heavy workload under full FPB. The interesting
// number is simulated instructions per wall second (reported as a custom
// metric).
func BenchmarkSimulation(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Scheme = sim.SchemeGCPIPMMR
	cfg.CellMapping = sim.MapBIM
	cfg.InstrPerCore = 20_000
	cfg.L3SizeMB = 8
	b.ReportAllocs()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := RunWorkload(cfg, "mcf_m")
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkPrefill measures the cache warm-up of one mcf_m core at the
// default geometry, on a fresh hierarchy per op (the snapshot cache is
// bypassed). Its stream inserts are distinct lines, so the L3 is written in
// closed form.
func BenchmarkPrefill(b *testing.B) {
	benchPrefill(b, sim.DefaultConfig())
}

// BenchmarkPrefillReplay is BenchmarkPrefill at a 128 MB L3, where mcf_m's
// streams lap their regions and the L3 inserts are replayed set by set.
func BenchmarkPrefillReplay(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.L3SizeMB = 128
	benchPrefill(b, cfg)
}

func benchPrefill(b *testing.B, cfg sim.Config) {
	wl, err := workload.ByName("mcf_m", cfg.Cores)
	if err != nil {
		b.Fatal(err)
	}
	prof := wl.Cores[0]
	gen := workload.NewGenerator(prof, &cfg, 0, sim.NewRNG(cfg.Seed).Derive(1000).Derive(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := cache.NewHierarchy(&cfg)
		prefill(h, gen, prof)
		h.Release()
	}
}

package system

import (
	"testing"

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
// bypassed). Its stream inserts are distinct lines, so the hot pass builds
// its L3 sets from the closed form.
func BenchmarkPrefill(b *testing.B) {
	benchPrefill(b, sim.DefaultConfig())
}

// BenchmarkPrefillLapping is BenchmarkPrefill at a 128 MB L3, where mcf_m's
// streams lap their regions, so lines repeat and the hot pass builds its L3
// sets by replaying each set's inserts.
func BenchmarkPrefillLapping(b *testing.B) {
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
		prefill(&cfg, gen, prof).Release()
	}
}

// BenchmarkPrefilledChild measures what a simulation pays for its warm
// caches once the snapshot exists: a copy-on-write child of one mcf_m core's
// default-geometry prefill, touching 1% of its L3 sets and 8% of its L2 sets
// (what a 20k-instruction run touches), then released.
func BenchmarkPrefilledChild(b *testing.B) {
	cfg := sim.DefaultConfig()
	wl, err := workload.ByName("mcf_m", cfg.Cores)
	if err != nil {
		b.Fatal(err)
	}
	prof := wl.Cores[0]
	gen := workload.NewGenerator(prof, &cfg, 0, sim.NewRNG(cfg.Seed).Derive(1000).Derive(1))
	parent := prefill(&cfg, gen, prof)
	l2Sets := cfg.L2SizeKB * 1024 / (cfg.L2LineB * cfg.L2Ways)
	l3Sets := cfg.L3SizeMB * 1024 * 1024 / (cfg.L3LineB * cfg.L3Ways)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := parent.Child(&cfg)
		for s := 0; s < l3Sets; s += 100 {
			h.L3().Access(uint64(s*cfg.L3LineB), false)
		}
		for s := 0; s < l2Sets; s += 12 {
			h.L2().Access(uint64(s*cfg.L2LineB), false)
		}
		h.Release()
	}
}

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
// bypassed): drawing the insert shuffle and describing the inserts and the
// hot-region walk. It builds no set; a snapshot's children build the sets
// they touch.
func BenchmarkPrefill(b *testing.B) {
	benchPrefill(b, sim.DefaultConfig())
}

// BenchmarkPrefillLapping is BenchmarkPrefill at a 128 MB L3, where mcf_m's
// streams lap their regions, so children build its L3 sets by replaying
// their inserts.
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
// caches once the snapshot exists: a copy-on-write child of one mcf_m
// core's default-geometry prefill, touching what a 20k-instruction run
// touches — every L1 set, 8% of its L2 sets and 1% of its L3 sets — then
// released. The child builds each set it touches from the snapshot.
func BenchmarkPrefilledChild(b *testing.B) {
	benchPrefilledChild(b, 1, 1)
}

// BenchmarkPrefilledChildLong is BenchmarkPrefilledChild touching what a
// 200k-instruction run touches: every L1 set, 58% of the L2 sets and 7% of
// the L3 sets.
func BenchmarkPrefilledChildLong(b *testing.B) {
	benchPrefilledChild(b, 7, 7)
}

// benchPrefilledChild touches every L1 set, l2Of12 of every 12 L2 sets and
// l3Of100 of every 100 L3 sets of each child.
func benchPrefilledChild(b *testing.B, l2Of12, l3Of100 int) {
	cfg := sim.DefaultConfig()
	wl, err := workload.ByName("mcf_m", cfg.Cores)
	if err != nil {
		b.Fatal(err)
	}
	prof := wl.Cores[0]
	gen := workload.NewGenerator(prof, &cfg, 0, sim.NewRNG(cfg.Seed).Derive(1000).Derive(1))
	parent := prefill(&cfg, gen, prof)
	l1Sets := cfg.L1SizeKB * 1024 / (cfg.L1LineB * cfg.L1Ways)
	l2Sets := cfg.L2SizeKB * 1024 / (cfg.L2LineB * cfg.L2Ways)
	l3Sets := cfg.L3SizeMB * 1024 * 1024 / (cfg.L3LineB * cfg.L3Ways)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := parent.Child(&cfg)
		for s := 0; s < l3Sets; s++ {
			if s%100 < l3Of100 {
				h.L3().Access(uint64(s*cfg.L3LineB), false)
			}
		}
		for s := 0; s < l2Sets; s++ {
			if s%12 < l2Of12 {
				h.L2().Access(uint64(s*cfg.L2LineB), false)
			}
		}
		for s := 0; s < l1Sets; s++ {
			h.L1().Access(uint64(s*cfg.L1LineB), false)
		}
		h.Release()
	}
}

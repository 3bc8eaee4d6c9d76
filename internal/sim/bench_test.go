package sim

import "testing"

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Cycle(i%1000), func() {})
		if i%64 == 0 {
			e.Run(0)
		}
	}
	e.Run(0)
}

// BenchmarkEngineReschedule has the shape of a simulation's event traffic:
// a few events pending at once (8 here; Fig. 18 runs average 4.3-8.5 at a
// dispatch and peak at 16), each rescheduling itself 2-5000 cycles ahead
// when it fires.
func BenchmarkEngineReschedule(b *testing.B) {
	e := NewEngine()
	rng := NewRNG(1)
	var fire func()
	fire = func() { e.After(Cycle(2+rng.Intn(4999)), fire) }
	for i := 0; i < 8; i++ {
		fire()
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(uint64(b.N))
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkRNGNormal(b *testing.B) {
	r := NewRNG(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Normal(8, 2.5)
	}
	_ = sink
}

package core

import (
	"testing"

	"fpb/internal/power"
)

// BenchmarkTryStartRefused measures one refused admission attempt of a write
// that no RESET split admits. At an unchanged epoch the offer answers it;
// at a moved epoch (one small grant taken and released per attempt) the
// offer's three plans are asked again.
func BenchmarkTryStartRefused(b *testing.B) {
	b.Run("unchanged-epoch", func(b *testing.B) {
		s, prof := refusedWrite()
		var o Offer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := s.TryStart(prof, &o); ok {
				b.Fatal("admitted")
			}
		}
	})
	b.Run("moved-epoch", func(b *testing.B) {
		s, prof := refusedWrite()
		mgr := s.Manager()
		var o Offer
		var g power.Grant
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mgr.TryAcquire(power.Demand{DIMM: 1}, &g)
			mgr.Release(&g)
			if _, ok := s.TryStart(prof, &o); ok {
				b.Fatal("admitted")
			}
		}
	})
}

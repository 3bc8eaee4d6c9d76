package cache

import (
	"testing"

	"fpb/internal/sim"
)

func BenchmarkCacheAccessHit(b *testing.B) {
	c := New(32*1024, 64, 4)
	c.Access(0x1000, false)
	for i := 0; i < b.N; i++ {
		if hit, _, _ := c.Access(0x1000, false); !hit {
			b.Fatal("miss")
		}
	}
}

// BenchmarkCacheAccessHitChild is BenchmarkCacheAccessHit on a child that
// owns the set: the cost of the owned-bit test on the hot path.
func BenchmarkCacheAccessHitChild(b *testing.B) {
	c := New(32*1024, 64, 4).Child()
	c.Access(0x1000, false)
	for i := 0; i < b.N; i++ {
		if hit, _, _ := c.Access(0x1000, false); !hit {
			b.Fatal("miss")
		}
	}
}

func BenchmarkCacheAccessStreamingMiss(b *testing.B) {
	c := New(32*1024, 64, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i)*64, i%2 == 0)
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.L3SizeMB = 4
	h := NewHierarchy(&cfg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Access(uint64(i)*64%(8<<20), i%4 == 0)
	}
}

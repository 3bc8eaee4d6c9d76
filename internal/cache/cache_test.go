package cache

import (
	"reflect"
	"testing"
	"testing/quick"

	"fpb/internal/sim"
)

func TestCacheHitAfterMiss(t *testing.T) {
	c := New(1024, 64, 2) // 8 sets
	hit, _, ev := c.Access(0x100, false)
	if hit || ev {
		t.Fatal("first access must be a clean miss")
	}
	hit, _, _ = c.Access(0x100, false)
	if !hit {
		t.Fatal("second access must hit")
	}
	if !c.Contains(0x100) || c.Contains(0x9000) {
		t.Error("Contains wrong")
	}
	h, m := c.Stats()
	if h != 1 || m != 1 {
		t.Errorf("stats = %d/%d, want 1/1", h, m)
	}
}

func TestCacheSameLineDifferentOffsets(t *testing.T) {
	c := New(1024, 64, 2)
	c.Access(0x100, false)
	if hit, _, _ := c.Access(0x13F, false); !hit {
		t.Error("access within same line missed")
	}
	if hit, _, _ := c.Access(0x140, false); hit {
		t.Error("access to next line hit")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(2*64, 64, 2) // one set, two ways
	c.Access(0x0, false)
	c.Access(0x40, false)
	c.Access(0x0, false) // touch A so B is LRU
	hit, v, ev := c.Access(0x80, false)
	if hit || !ev {
		t.Fatal("third distinct line must evict")
	}
	if v.Addr != 0x40 {
		t.Errorf("evicted %#x, want LRU 0x40", v.Addr)
	}
	if v.Dirty {
		t.Error("clean line evicted dirty")
	}
	if !c.Contains(0x0) || c.Contains(0x40) {
		t.Error("wrong resident set after eviction")
	}
}

func TestCacheDirtyEviction(t *testing.T) {
	c := New(2*64, 64, 2)
	c.Access(0x0, true) // dirty
	c.Access(0x40, false)
	c.Access(0x40, false) // A is LRU
	_, v, ev := c.Access(0x80, false)
	if !ev || !v.Dirty || v.Addr != 0x0 {
		t.Errorf("want dirty eviction of 0x0, got %+v ev=%v", v, ev)
	}
}

func TestCacheWriteHitSetsDirty(t *testing.T) {
	c := New(1024, 64, 2)
	c.Access(0x200, false)
	if c.IsDirty(0x200) {
		t.Error("clean fill marked dirty")
	}
	c.Access(0x200, true)
	if !c.IsDirty(0x200) {
		t.Error("write hit did not set dirty")
	}
	if c.IsDirty(0x4000) {
		t.Error("absent line reported dirty")
	}
}

func TestCacheInvalidConfigPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 64, 2) },
		func() { New(1024, 0, 2) },
		func() { New(1024, 64, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid cache config did not panic")
				}
			}()
			f()
		}()
	}
}

func TestCacheNeverExceedsCapacityProperty(t *testing.T) {
	err := quick.Check(func(addrs []uint16) bool {
		c := New(512, 64, 2) // 8 lines total
		for _, a := range addrs {
			c.Access(uint64(a), a%3 == 0)
		}
		resident := 0
		for line := uint64(0); line < 1024; line++ {
			if c.Contains(line * 64) {
				resident++
			}
		}
		return resident <= 8
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestCacheStreamingEvictsEverything(t *testing.T) {
	c := New(4096, 64, 4) // 64 lines
	// Two full laps over 128 lines: every access of lap 2 must miss.
	for lap := 0; lap < 2; lap++ {
		start, _ := c.Stats()
		for i := 0; i < 128; i++ {
			c.Access(uint64(i)*64, false)
		}
		h, _ := c.Stats()
		if h != start {
			t.Fatalf("lap %d produced %d hits; streaming must thrash", lap, h-start)
		}
	}
}

// TestFillDistinctMatchesAccess checks fillDistinct, the eager reference
// for newFilled, against the same inserts sent one by one through Access on
// a fresh cache: the whole cache
// — metadata, tick, hit and miss counters — must come out identical. Each
// sequence inserts distinct lines drawn from a pool smaller or larger than
// the cache, in a random order, with mixed dirty bits and in-line offsets,
// so some sets get fewer inserts than ways and others many more. Geometries
// cover power-of-two and other set counts and line sizes, and n = 0.
func TestFillDistinctMatchesAccess(t *testing.T) {
	geoms := []struct{ sets, lineB, ways int }{
		{16, 64, 4},
		{10, 64, 3},
		{7, 96, 2},
		{64, 256, 8},
		{1, 64, 4},
	}
	rng := sim.NewRNG(2)
	for _, g := range geoms {
		lines := g.sets * g.ways
		for trial := 0; trial < 40; trial++ {
			want := New(g.sets*g.lineB*g.ways, g.lineB, g.ways)
			got := deepCopy(want)
			n := 0
			if trial > 0 {
				n = rng.Intn(4*lines + 1)
			}
			// Line k is the pool's pick[k]-th line, so the n lines are
			// distinct but neither contiguous nor in set order.
			pool := n + rng.Intn(2*lines+1)
			pick := make([]int, pool)
			rng.Perm(pick)
			base := rng.Uint64n(1<<40) * uint64(g.lineB)
			addrs, writes := make([]uint64, n), make([]bool, n)
			for k := range addrs {
				addrs[k] = base + uint64(pick[k]*g.lineB) + rng.Uint64n(uint64(g.lineB))
				writes[k] = rng.Intn(2) == 0
			}
			order := make([]int, n)
			rng.Perm(order)
			for _, k := range order {
				want.Access(addrs[k], writes[k])
			}
			fillDistinct(got, order, func(k int) (uint64, bool) { return addrs[k], writes[k] })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d sets x %d ways, %d B lines, trial %d (%d inserts): fill state differs from sequential Access",
					g.sets, g.ways, g.lineB, trial, n)
			}
		}
	}
}

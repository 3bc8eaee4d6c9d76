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

// TestAccessBatchMatchesAccess checks AccessBatch against the same accesses
// sent one by one through Access: the whole cache — metadata, tick, hit and
// miss counters — must come out identical. Sequences draw from a pool of
// lines smaller or larger than the cache, so lines repeat (hits, and
// re-inserts after eviction) or not, with mixed dirty bits and in-line
// offsets. Geometries cover power-of-two and other set counts and line sizes,
// and every other trial starts from a cache already partly used.
func TestAccessBatchMatchesAccess(t *testing.T) {
	geoms := []struct{ sets, lineB, ways int }{
		{16, 64, 4},
		{10, 64, 3},
		{7, 96, 2},
		{64, 256, 8},
		{1, 64, 4},
	}
	rng := sim.NewRNG(1)
	for _, g := range geoms {
		lines := g.sets * g.ways
		for trial := 0; trial < 40; trial++ {
			want := New(g.sets*g.lineB*g.ways, g.lineB, g.ways)
			base := rng.Uint64n(1<<40) * uint64(g.lineB)
			pool := 1 + rng.Intn(3*lines)
			draw := func() (uint64, bool) {
				return base + rng.Uint64n(uint64(pool*g.lineB)), rng.Intn(2) == 0
			}
			if trial%2 == 1 {
				for k := rng.Intn(2 * lines); k > 0; k-- {
					want.Access(draw())
				}
			}
			got := want.Clone()
			n := rng.Intn(4*lines + 1)
			addrs, writes := make([]uint64, n), make([]bool, n)
			for i := range addrs {
				addrs[i], writes[i] = draw()
				want.Access(addrs[i], writes[i])
			}
			got.AccessBatch(n, func(i int) (uint64, bool) { return addrs[i], writes[i] })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d sets x %d ways, %d B lines, trial %d (%d accesses over %d lines): batch state differs from sequential Access",
					g.sets, g.ways, g.lineB, trial, n, pool)
			}
		}
	}
}

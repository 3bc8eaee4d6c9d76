package sim_test

import (
	"strings"
	"testing"

	"fpb/internal/cache"
	"fpb/internal/sim"
)

// TestValidateMatchesCacheGeometry: Validate must refuse exactly the cache
// geometries cache.New panics on (a non-positive size or way count, or a
// capacity below one set), at every level, so a bad job spec is a 400 and
// not a crashed worker. Each case is checked against a real build.
func TestValidateMatchesCacheGeometry(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*sim.Config)
		ok   bool
	}{
		{"L1 zero ways", func(c *sim.Config) { c.L1Ways = 0 }, false},
		{"L1 zero size", func(c *sim.Config) { c.L1SizeKB = 0 }, false},
		{"L1 negative size", func(c *sim.Config) { c.L1SizeKB = -32 }, false},
		{"L1 below one set", func(c *sim.Config) { c.L1SizeKB, c.L1Ways = 1, 32 }, false},
		{"L1 one set", func(c *sim.Config) { c.L1SizeKB, c.L1Ways = 1, 16 }, true},
		{"L2 negative ways", func(c *sim.Config) { c.L2Ways = -1 }, false},
		{"L2 zero size", func(c *sim.Config) { c.L2SizeKB = 0 }, false},
		{"L2 below one set", func(c *sim.Config) { c.L2SizeKB, c.L2Ways = 1, 17 }, false},
		{"L2 one set", func(c *sim.Config) { c.L2SizeKB, c.L2Ways = 1, 16 }, true},
		{"L3 zero size", func(c *sim.Config) { c.L3SizeMB = 0 }, false},
		{"L3 zero ways", func(c *sim.Config) { c.L3Ways = 0 }, false},
		{"L3 below one set", func(c *sim.Config) { c.L3SizeMB, c.L3Ways = 1, 4097 }, false},
		{"L3 one set", func(c *sim.Config) { c.L3SizeMB, c.L3Ways = 1, 4096 }, true},
		{"L1 line*ways overflows", func(c *sim.Config) { c.L1Ways = 1 << 58 }, false},
	}
	for _, tc := range cases {
		cfg := sim.DefaultConfig()
		tc.mut(&cfg)
		err := cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if err == nil {
			cache.NewHierarchy(&cfg).Release() // must not panic
		} else if !panics(func() { cache.NewHierarchy(&cfg) }) {
			t.Errorf("%s: cache.NewHierarchy builds a geometry Validate refuses", tc.name)
		}
	}
}

// TestValidateBoundsL3ByStreamLayout: the workload layout keeps the load
// and store stream regions apart only while a region (twice the L3, and
// at least 4096 L3 lines) fits in the 1 GB between them, so Validate
// accepts a 512 MB L3 and 256 KiB lines and refuses 513 MB and 512 KiB,
// naming the layout.
func TestValidateBoundsL3ByStreamLayout(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*sim.Config)
		ok   bool
	}{
		{"L3SizeMB 512", func(c *sim.Config) { c.L3SizeMB = sim.MaxL3SizeMB }, true},
		{"L3SizeMB 513", func(c *sim.Config) { c.L3SizeMB = sim.MaxL3SizeMB + 1 }, false},
		{"L3LineB 256 KiB", func(c *sim.Config) { c.L3LineB = sim.MaxL3LineB }, true},
		{"L3LineB 512 KiB", func(c *sim.Config) { c.L3LineB = 2 * sim.MaxL3LineB }, false},
	}
	for _, tc := range cases {
		cfg := sim.DefaultConfig()
		tc.mut(&cfg)
		err := cfg.Validate()
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case !tc.ok && (err == nil || !strings.Contains(err.Error(), "1 GB apart")):
			t.Errorf("%s: Validate() = %v, want an error naming the stream layout", tc.name, err)
		}
	}
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

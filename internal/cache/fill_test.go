package cache

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"fpb/internal/sim"
)

// deepCopy returns an independent copy of a plain cache: what a child of
// it must behave like.
func deepCopy(c *Cache) *Cache {
	cp := *c
	cp.meta = slices.Clone(c.meta)
	return &cp
}

// fillDistinct is the eager reference for NewFilled's closed form: it
// leaves a fresh plain cache in the state of the n = len(order) calls
// Access(line(order[i])), i = 0..n-1, provided order is a permutation of
// 0..n-1 and line maps distinct k to distinct cache lines. It counts each
// set's inserts in line order, then walks order backwards and writes each
// set's last W inserts straight into their ways: a set's j-th insert lands
// in way W-1-(j mod W), insert i with tick i+1.
func fillDistinct(c *Cache, order []int, line func(k int) (addr uint64, write bool)) {
	n := len(order)
	// fill[s].left counts set s's inserts, then how many of its last W are
	// still unwritten; fill[s].way is where the next of them (going back in
	// time) lands.
	type setFill struct{ left, way int32 }
	fill := make([]setFill, c.sets)
	for k := 0; k < n; k++ {
		addr, _ := line(k)
		fill[c.set(c.lineIndex(addr))].left++
	}
	ways := int32(c.ways)
	for s := range fill {
		if f := &fill[s]; f.left > 0 {
			f.way = ways - 1 - (f.left-1)%ways
			f.left = min(f.left, ways)
		}
	}
	for i := n - 1; i >= 0; i-- {
		addr, write := line(order[i])
		lineIdx := c.lineIndex(addr)
		s := c.set(lineIdx)
		f := &fill[s]
		if f.left == 0 {
			continue
		}
		f.left--
		meta := uint64(i+1)<<tickShift | wayValid
		if write {
			meta |= wayDirty
		}
		c.meta[s*c.ways+int(f.way)] = way{tag: lineIdx, meta: meta}
		// The set's previous insert went one way further along the rotation.
		if f.way++; f.way == ways {
			f.way = 0
		}
	}
	c.tick = uint64(n)
	c.misses = uint64(n)
}

// TestNewFilledMatchesReference checks the on-demand fill on random
// geometries — power-of-two and other set counts, 64, 96, 192 and 256 B
// lines, cursors at, near and far from the wrap, each stream's length from
// 0 to three times its span (so it may lap its region), and regions apart
// or overlapping. Every set of a NewFilled cache must equal the shuffled
// inserts sent one by one through Access, counters zeroed, and, when no
// line repeats, fillDistinct. Then, after the accesses a prefill's hot
// pass makes before publishing a parent, children of the filled cache and
// of the eager one must answer a random access sequence exactly like a
// deep copy of the eager cache and end in its state, while both parents
// stay unchanged.
func TestNewFilledMatchesReference(t *testing.T) {
	rng := sim.NewRNG(3)
	var distinct, laps, overlaps int // trials of each kind
	for trial := 0; trial < 400; trial++ {
		sets := []int{1, 2, 7, 10, 16, 37, 64, 100}[rng.Intn(8)]
		ways := 1 + rng.Intn(8)
		lineB := []int{64, 96, 192, 256}[rng.Intn(4)]
		lines := sets * ways
		span := 1 + rng.Uint64n(uint64(3*lines))
		length := func() uint64 {
			switch rng.Intn(5) {
			case 0:
				return 0
			case 1:
				return span
			case 2: // the walk laps its region
				return span + 1 + rng.Uint64n(2*span)
			}
			return rng.Uint64n(span + 1)
		}
		cursor := func(n uint64) uint64 {
			switch rng.Intn(4) {
			case 0: // the walk ends on the region's first line
				return min(n, span-1)
			case 1: // it wraps at once
				return rng.Uint64n(min(3, span))
			case 2: // far from the wrap
				return span - 1 - rng.Uint64n(min(3, span))
			}
			return rng.Uint64n(span)
		}
		rBase := 1<<40 + rng.Uint64n(1<<40)
		var wBase uint64
		switch rng.Intn(3) {
		case 0:
			wBase = rBase + span + rng.Uint64n(uint64(2*sets))
		case 1:
			wBase = rBase - span - rng.Uint64n(uint64(2*sets))
		default: // the regions share at least one line
			wBase = rBase - span + 1 + rng.Uint64n(2*span-1)
		}
		nR, nW := length(), length()
		streams := []Stream{
			{Base: rBase, Cur: cursor(nR), Span: span, N: nR},
			{Base: wBase, Cur: cursor(nW), Span: span, N: nW, Dirty: true},
		}
		n := int(nR + nW)
		seed := rng.Uint64()
		order := make([]int, n)
		sim.NewRNG(seed).Perm(order)
		pos := make([]int32, n)
		sim.NewRNG(seed).InvPerm(pos)
		line := func(k int) (uint64, bool) {
			st, kk := streams[0], uint64(k)
			if kk >= st.N {
				st, kk = streams[1], kk-st.N
			}
			l := (st.Cur + st.Span - 1 - kk%st.Span) % st.Span
			return (st.Base+l)*uint64(lineB) + uint64(k*7)%uint64(lineB), st.Dirty
		}
		size := lines * lineB
		seq := New(size, lineB, ways)
		for _, k := range order {
			seq.Access(line(k))
		}
		seq.hits, seq.misses = 0, 0
		got := NewFilled(size, lineB, ways, pos, streams...)
		geom := func() string {
			return fmt.Sprintf("trial %d: %d sets x %d ways, %d B lines, span %d, streams %+v", trial, sets, ways, lineB, span, streams)
		}
		want := seq.appendState(nil)
		if !bytes.Equal(got.appendState(nil), want) {
			t.Fatalf("%s: NewFilled differs from sequential Access", geom())
		}
		seen := make(map[uint64]bool, n)
		for k := 0; k < n; k++ {
			addr, _ := line(k)
			seen[addr/uint64(lineB)] = true
		}
		switch {
		case len(seen) == n:
			distinct++
			ref := New(size, lineB, ways)
			fillDistinct(ref, order, line)
			ref.hits, ref.misses = 0, 0
			if !bytes.Equal(ref.appendState(nil), want) {
				t.Fatalf("%s: fillDistinct differs from sequential Access", geom())
			}
		case nR > span || nW > span:
			laps++
		default:
			overlaps++
		}

		draw := func() (uint64, bool) {
			base := streams[rng.Intn(2)].Base
			l := base - uint64(sets) + rng.Uint64n(span+uint64(2*sets))
			return l*uint64(lineB) + rng.Uint64n(uint64(lineB)), rng.Intn(2) == 0
		}
		same := func(what string, a, b *Cache, steps int) {
			for i := 0; i < steps; i++ {
				addr, write := draw()
				h1, v1, e1 := a.Access(addr, write)
				h2, v2, e2 := b.Access(addr, write)
				if h1 != h2 || v1 != v2 || e1 != e2 {
					t.Fatalf("%s: %s access %d (%#x): (%v, %+v, %v), reference (%v, %+v, %v)",
						geom(), what, i, addr, h1, v1, e1, h2, v2, e2)
				}
			}
			if !bytes.Equal(a.appendState(nil), b.appendState(nil)) {
				t.Fatalf("%s: %s ends in a different state from the reference", geom(), what)
			}
		}
		same("the filled parent", got, seq, rng.Intn(2*lines))
		parent := seq.appendState(nil)
		for _, p := range []*Cache{got, seq} {
			for c := 0; c < 2; c++ {
				same("a child", p.Child(), deepCopy(seq), rng.Intn(4*lines))
			}
			if !bytes.Equal(p.appendState(nil), parent) {
				t.Fatalf("%s: a parent changed under its children", geom())
			}
		}
	}
	// Each kind of trial must stay well represented: distinct lines (the
	// closed form), a lapping stream, and overlapping regions whose
	// streams share a line.
	if distinct < 100 || laps < 100 || overlaps < 20 {
		t.Errorf("%d distinct, %d lapping and %d overlapping trials", distinct, laps, overlaps)
	}
}

// TestNewFilledRejectsBadStreams: a stream's cursor must lie in its region
// and pos must number the streams' lines exactly, so a cursor outside the
// region or a pos of the wrong length is refused.
func TestNewFilledRejectsBadStreams(t *testing.T) {
	for _, tc := range []struct {
		pos []int32
		st  Stream
	}{
		{make([]int32, 2), Stream{Cur: 4, Span: 4, N: 2}},
		{make([]int32, 3), Stream{Span: 4, N: 2}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFilled(%d positions, %+v) did not panic", len(tc.pos), tc.st)
				}
			}()
			NewFilled(1024, 64, 2, tc.pos, tc.st)
		}()
	}
}

package cache

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
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

// fillDistinct is the eager reference for newFilled's closed form: it
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

// walkReads sends walk's reads through c as they reach a level whose
// walk units are unitB bytes long (see newFilled): one read per unit, at
// the unit's first walk step. It returns the lines the reads touched.
func walkReads(c *Cache, walk Walk, unitB uint64) map[uint64]bool {
	lines := make(map[uint64]bool)
	for t := uint64(0); t < walk.N; t++ {
		addr := walk.Start + t*WalkStepB
		if t == 0 || addr/unitB != (addr-WalkStepB)/unitB {
			c.Access(addr, false)
			lines[c.lineIndex(addr)] = true
		}
	}
	return lines
}

// TestNewFilledMatchesReference checks the on-demand fill on random
// geometries — power-of-two and other set counts (one set among them), 64,
// 96, 192 and 256 B lines, cursors at, near and far from the wrap, each
// stream's length from 0 to three times its span (so it may lap its
// region), and regions apart or overlapping — followed by a random walk:
// none, one apart from the regions, or one that starts near or inside a
// region, so that it may read resident stream lines; its units are walk
// steps or lines of a level above nesting in the cache's. Every set of a
// filled cache must equal the shuffled inserts and then the walk's reads
// sent one by one through Access, counters zeroed, and, when no stream line
// repeats, the inserts must equal fillDistinct. Then children of the
// filled cache and of the eager one must answer a random access sequence
// exactly like a deep copy of the eager cache and end in its state, while
// both parents stay unchanged.
func TestNewFilledMatchesReference(t *testing.T) {
	rng := sim.NewRNG(3)
	var distinct, walkMeets, laps, overlaps, oneSetWalks int // trials of each kind
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

		// The walk's units: its steps, or the lines of a level above.
		var units []uint64
		for _, u := range []int{WalkStepB, lineB, lineB / 2, lineB / 3, lineB / 4} {
			if u == WalkStepB || u >= WalkStepB && lineB%u == 0 {
				units = append(units, uint64(u))
			}
		}
		unitB := units[rng.Intn(len(units))]
		var walk Walk
		if rng.Intn(6) > 0 {
			walk.N = 1 + rng.Uint64n(uint64(3*lines*lineB/WalkStepB))
			var first uint64 // the line it starts in
			switch rng.Intn(3) {
			case 0: // apart from both regions
				first = min(rBase, wBase) - uint64(4*lines) - rng.Uint64n(uint64(2*sets))
			default: // near or inside a region
				first = streams[rng.Intn(2)].Base - uint64(lines) + rng.Uint64n(span+uint64(2*lines))
			}
			walk.Start = (first*uint64(lineB) + rng.Uint64n(uint64(lineB))) / WalkStepB * WalkStepB
		}

		size := lines * lineB
		seq := New(size, lineB, ways)
		for _, k := range order {
			seq.Access(line(k))
		}
		seq.hits, seq.misses = 0, 0
		inserted := seq.appendState(nil)
		walked := walkReads(seq, walk, unitB)
		seq.hits, seq.misses = 0, 0
		got := newFilled(size, lineB, ways, pos, walk, int(unitB), streams...)
		geom := func() string {
			return fmt.Sprintf("trial %d: %d sets x %d ways, %d B lines, span %d, streams %+v, walk %+v in %d B units",
				trial, sets, ways, lineB, span, streams, walk, unitB)
		}
		want := seq.appendState(nil)
		if !bytes.Equal(got.appendState(nil), want) {
			t.Fatalf("%s: newFilled differs from sequential Access", geom())
		}
		seen := make(map[uint64]bool, n)
		for k := 0; k < n; k++ {
			addr, _ := line(k)
			seen[addr/uint64(lineB)] = true
		}
		if len(seen) == n {
			ref := New(size, lineB, ways)
			fillDistinct(ref, order, line)
			ref.hits, ref.misses = 0, 0
			if !bytes.Equal(ref.appendState(nil), inserted) {
				t.Fatalf("%s: fillDistinct differs from sequential Access", geom())
			}
		}
		if walk.N > 0 && sets == 1 {
			oneSetWalks++
		}
		streamLines := len(seen)
		for l := range walked {
			seen[l] = true
		}
		switch {
		case len(seen) == n+len(walked):
			distinct++
		case streamLines == n:
			walkMeets++
		case nR > span || nW > span:
			laps++
		default:
			overlaps++
		}

		draw := func() (uint64, bool) {
			if walk.N > 0 && rng.Intn(3) == 0 {
				return walk.Start + rng.Uint64n(walk.N*WalkStepB+uint64(2*lineB)) - uint64(lineB), rng.Intn(2) == 0
			}
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
		for _, p := range []*Cache{got, seq} {
			for c := 0; c < 2; c++ {
				same("a child", p.Child(), deepCopy(seq), rng.Intn(4*lines))
			}
			if !bytes.Equal(p.appendState(nil), want) {
				t.Fatalf("%s: a parent changed under its children", geom())
			}
		}
	}
	// Each kind of trial must stay well represented: distinct lines (the
	// closed form), a walk that reads a stream line, a lapping stream,
	// overlapping regions whose streams share a line, and a walk through
	// a one-set cache.
	if distinct < 100 || walkMeets < 20 || laps < 100 || overlaps < 20 || oneSetWalks < 20 {
		t.Errorf("%d distinct, %d walk-meets-stream, %d lapping, %d overlapping and %d one-set walk trials",
			distinct, walkMeets, laps, overlaps, oneSetWalks)
	}
}

// TestFilledCacheIsReadOnly: Access on a filled cache, or on a hierarchy
// of them, panics with a message that points to Child, and leaves the
// cache as it was; Release leaves it usable as a parent.
func TestFilledCacheIsReadOnly(t *testing.T) {
	cfg := smallConfig()
	pos := make([]int32, 8)
	sim.NewRNG(1).InvPerm(pos)
	h := NewFilledHierarchy(&cfg, pos, Walk{Start: 1 << 20, N: 100}, Stream{Base: 1 << 30, Cur: 3, Span: 16, N: 8})
	want := h.Digest()
	for _, c := range []*Cache{h.L1(), h.L2(), h.L3()} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "Child") {
					t.Errorf("Access on a filled cache panicked with %q, want a message naming Child", msg)
				}
			}()
			c.Access(1<<20, true)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Access on a filled hierarchy did not panic")
			}
		}()
		h.Access(1<<20, false)
	}()
	h.Release()
	if h.Digest() != want {
		t.Error("a filled hierarchy changed under Access or Release")
	}
	if out := h.Child(&cfg).Access(1<<20+99*WalkStepB, false); out.Level != LevelL1 {
		t.Errorf("a child of the filled hierarchy served the walk's last line at %v, want L1", out.Level)
	}
}

// TestNewFilledRejectsBadStreams: a stream's cursor must lie in its
// region, pos must number the streams' lines exactly, and a walk must
// start on a step and reach the cache in units that are steps or nest in
// its lines, none longer than a line, so a cursor outside the region, a
// pos of the wrong length, a walk off its step, a line shorter than a step
// and units that straddle lines are refused.
func TestNewFilledRejectsBadStreams(t *testing.T) {
	for _, tc := range []struct {
		lineB, unitB int
		pos          []int32
		st           Stream
		walk         Walk
	}{
		{64, WalkStepB, make([]int32, 2), Stream{Cur: 4, Span: 4, N: 2}, Walk{}},
		{64, WalkStepB, make([]int32, 3), Stream{Span: 4, N: 2}, Walk{}},
		{64, WalkStepB, nil, Stream{Span: 4}, Walk{Start: 32, N: 1}},
		{32, WalkStepB, nil, Stream{Span: 4}, Walk{N: 1}},
		{192, 128, nil, Stream{Span: 4}, Walk{N: 1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newFilled(%d B lines, %d B units, %d positions, %+v, %+v) did not panic",
						tc.lineB, tc.unitB, len(tc.pos), tc.st, tc.walk)
				}
			}()
			newFilled(1024, tc.lineB, 2, tc.pos, tc.walk, tc.unitB, tc.st)
		}()
	}
}

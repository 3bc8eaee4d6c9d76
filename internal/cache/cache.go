// Package cache implements the write-back cache hierarchy of the simulated
// CMP: per-core private L1 and L2 SRAM caches and a private off-chip DRAM
// L3 whose line size equals the PCM memory line (Table 1). The hierarchy is
// functional (tags + dirty bits, true LRU) and reports which level served
// each access and which memory operations (demand fills and dirty
// writebacks) it generated; timing is applied by the CPU model.
package cache

import (
	"math/bits"
	"slices"
	"sync"
)

// Victim describes a line evicted by an allocation.
type Victim struct {
	Addr  uint64 // line-aligned address
	Dirty bool
}

// way is the per-way metadata, laid out set-major so the tag probe walks one
// contiguous run of memory per set instead of gathering from parallel
// slices. Access is the hottest function in the whole simulator (every
// instruction of every core goes through up to three of these probes), and
// children copy their parent's sets whole, so the layout is packed to 16
// bytes: valid and dirty live in the low bits of the LRU word.
type way struct {
	tag  uint64 // line index
	meta uint64 // LRU tick << 2 | dirty << 1 | valid
}

const (
	wayValid  = 1 << 0
	wayDirty  = 1 << 1
	tickShift = 2
)

// Cache is one set-associative write-back, write-allocate cache level.
//
// A plain cache (New) holds every set in place, set s at meta[s*ways:].
// Two kinds hold some sets elsewhere until an access first touches them:
//   - a child (Child) reads each set through to its frozen parent, then
//     copies it into its own ways and marks it owned;
//   - a filled cache (NewFilled) builds each set from its inserts, keeping
//     the sets its own accesses built in a compact store.
type Cache struct {
	lineB     int
	lineShift uint // log2(lineB) when lineB is a power of two
	linePow2  bool
	ways      int
	sets      int
	setMask   uint64 // sets-1 when sets is a power of two (the common case)
	setPow2   bool
	meta      []way // sets*ways, set-major; a filled cache's built sets
	tick      uint64
	hits      uint64
	misses    uint64

	// owned has bit s set when set s is the cache's own at meta[s*ways:].
	// It is nil in a plain cache, whose Access skips the check, and all
	// zero in a filled cache.
	owned  []uint64
	parent *Cache      // a child's parent
	fill   *streamFill // a filled cache's inserts
}

// Stream is a walk of N lines backwards through a region of Span lines
// whose first line has index Base: its k-th line is
// Base + (Cur-1-k) mod Span, for Cur < Span, so it starts just behind line
// Cur, wraps from the region's first line to its last, and laps the region
// when N > Span. Dirty marks every line of the walk dirty.
type Stream struct {
	Base, Cur, Span, N uint64
	Dirty              bool
}

// streamFill is a filled cache's inserts, and where in meta the sets it
// has built sit.
type streamFill struct {
	pos      []int32 // pos[k] is the insert index of stream line k
	streams  []Stream
	slot     []int32 // slot[s] is 1 + set s's index in meta, 0 if unbuilt
	distinct bool    // no line repeats: no stream laps, no regions overlap
}

// metaPools recycles way arrays by length. A full figure sweep builds
// hundreds of hierarchies (megabytes of metadata each); reusing released
// arrays keeps children on warm pages instead of fault-zeroing fresh ones.
var metaPools sync.Map // len -> *sync.Pool of []way

func newMeta(n int, zero bool) []way {
	if p, ok := metaPools.Load(n); ok {
		if s, _ := p.(*sync.Pool).Get().([]way); s != nil {
			if zero {
				clear(s)
			}
			return s
		}
	}
	return make([]way, n)
}

// New builds a cache of sizeBytes capacity with the given line size and
// associativity. Sizes that do not divide evenly are rounded down to whole
// sets; a cache smaller than one set panics.
func New(sizeBytes, lineB, ways int) *Cache {
	c := newGeometry(sizeBytes, lineB, ways)
	c.meta = newMeta(c.sets*c.ways, true)
	return c
}

// newGeometry returns an empty cache of the geometry New builds, without
// its way array.
func newGeometry(sizeBytes, lineB, ways int) *Cache {
	if lineB <= 0 || ways <= 0 {
		panic("cache: line size and ways must be positive")
	}
	sets := sizeBytes / (lineB * ways)
	if sets <= 0 {
		panic("cache: capacity below one set")
	}
	c := &Cache{lineB: lineB, ways: ways, sets: sets}
	if lineB&(lineB-1) == 0 {
		c.lineShift = uint(bits.TrailingZeros(uint(lineB)))
		c.linePow2 = true
	}
	if sets&(sets-1) == 0 {
		c.setMask = uint64(sets - 1)
		c.setPow2 = true
	}
	return c
}

// NewFilled returns a cache in exactly the state New(sizeBytes, lineB,
// ways) reaches after n = len(pos) calls Access, where insert i is the
// stream line k with pos[k] = i — tags, dirty bits, LRU ticks, way
// positions and tick alike — except that its hit and miss counters start
// at zero. The streams' lines are numbered in order, so line k of
// streams[1] is line k + streams[0].N. pos must be a permutation of
// 0..n-1.
//
// A set's state depends only on its own inserts, so NewFilled writes no
// set; each is built when first read. When no stream laps its region and
// no two regions overlap, the inserts are distinct lines and all miss:
// Access fills an empty set's ways from W-1 down to 0 and then evicts them
// in the same rotation, so a set's j-th insert lands in way W-1-(j mod W)
// and the set ends holding its last W inserts, insert i with tick i+1, a
// closed form the build writes directly. Otherwise lines repeat, and the
// build replays the set's inserts through Access in insert order. The
// cache keeps pos and the sets its own accesses built. Once the set it is
// about to build would make those half its sets, which with pos take about
// as much memory as a plain cache, it builds every set in place and
// becomes a plain cache.
func NewFilled(sizeBytes, lineB, ways int, pos []int32, streams ...Stream) *Cache {
	c := newGeometry(sizeBytes, lineB, ways)
	var n uint64
	distinct := true
	for i, st := range streams {
		if st.Cur >= st.Span {
			panic("cache: stream needs Cur < Span")
		}
		n += st.N
		distinct = distinct && st.N <= st.Span
		for _, o := range streams[:i] {
			distinct = distinct && (st.Base+st.Span <= o.Base || o.Base+o.Span <= st.Base)
		}
	}
	if n != uint64(len(pos)) {
		panic("cache: pos does not number the stream lines")
	}
	c.fill = &streamFill{pos: pos, streams: streams, slot: make([]int32, c.sets), distinct: distinct}
	c.owned = make([]uint64, (c.sets+63)/64)
	c.tick = n
	return c
}

// Stats reports accumulated demand hits and misses.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// Child returns a copy-on-write copy of c — same tags, dirty bits, LRU
// state and statistics — whose cost does not grow with c's contents: it
// reads each set through to c until it first accesses that set, then copies
// the set into its own ways. c must not change afterwards and must not be
// a child itself; children on any goroutine then read it without locks.
func (c *Cache) Child() *Cache {
	if c.parent != nil {
		panic("cache: child of a child")
	}
	ch := *c
	ch.meta = newMeta(c.sets*c.ways, false) // read only where owned
	ch.owned = make([]uint64, (c.sets+63)/64)
	ch.parent, ch.fill = c, nil
	return &ch
}

// Release returns the cache's way array to the pool. The cache must not be
// used afterwards; callers release only when they own the last reference
// (e.g. a finished simulation tearing down), and never a child's parent.
func (c *Cache) Release() {
	if c.meta == nil {
		return
	}
	if c.fill == nil {
		p, _ := metaPools.LoadOrStore(len(c.meta), &sync.Pool{})
		p.(*sync.Pool).Put(c.meta)
	}
	c.meta = nil
}

func (c *Cache) lineIndex(addr uint64) uint64 {
	if c.linePow2 {
		return addr >> c.lineShift
	}
	return addr / uint64(c.lineB)
}

func (c *Cache) set(lineIdx uint64) int {
	if c.setPow2 {
		return int(lineIdx & c.setMask)
	}
	return int(lineIdx % uint64(c.sets))
}

// Access performs a demand access. On a miss the line is allocated
// (the fill itself is the caller's concern) and the LRU victim, if any,
// is returned. write marks the line dirty.
func (c *Cache) Access(addr uint64, write bool) (hit bool, victim Victim, evicted bool) {
	lineIdx := c.lineIndex(addr)
	c.tick++
	s := c.set(lineIdx)
	base := s * c.ways
	if c.owned != nil && c.owned[s>>6]&(1<<(s&63)) == 0 {
		base = c.locate(s)
	}
	set := c.meta[base : base+c.ways]
	var lruWay, invalidWay = -1, -1
	var lruTick uint64 = ^uint64(0)
	for w := range set {
		m := &set[w]
		if m.meta&wayValid == 0 {
			invalidWay = w
			continue
		}
		if m.tag == lineIdx {
			c.hits++
			flags := m.meta & (wayValid | wayDirty)
			if write {
				flags |= wayDirty
			}
			m.meta = c.tick<<tickShift | flags
			return true, Victim{}, false
		}
		if u := m.meta >> tickShift; u < lruTick {
			lruTick = u
			lruWay = w
		}
	}
	c.misses++
	w := invalidWay
	if w < 0 {
		w = lruWay
		m := &set[w]
		victim = Victim{Addr: m.tag * uint64(c.lineB), Dirty: m.meta&wayDirty != 0}
		evicted = true
	}
	flags := uint64(wayValid)
	if write {
		flags |= wayDirty
	}
	set[w] = way{tag: lineIdx, meta: c.tick<<tickShift | flags}
	return false, victim, evicted
}

// locate returns where set s's ways start in meta after making them the
// cache's own: a child copies the set from its parent and marks it owned,
// and a filled cache builds it into its compact store the first time.
func (c *Cache) locate(s int) int {
	f := c.fill
	if f == nil {
		base := s * c.ways
		dst := c.meta[base : base+c.ways]
		copy(dst, c.parent.readSet(s, dst))
		c.owned[s>>6] |= 1 << (s & 63)
		return base
	}
	if i := f.slot[s]; i != 0 {
		return int(i-1) * c.ways
	}
	base := len(c.meta)
	if 2*(base+c.ways) >= c.sets*c.ways {
		c.materialize()
		return s * c.ways
	}
	if base+c.ways > cap(c.meta) {
		c.meta = slices.Grow(c.meta, max(c.ways, base)) // doubling
	}
	c.meta = c.meta[:base+c.ways]
	c.build(s, c.meta[base:])
	f.slot[s] = int32(base/c.ways + 1)
	return base
}

// materialize builds every set of a filled cache in place, making it a
// plain cache.
func (c *Cache) materialize() {
	meta := newMeta(c.sets*c.ways, false)
	for s := 0; s < c.sets; s++ {
		dst := meta[s*c.ways : (s+1)*c.ways]
		copy(dst, c.readSet(s, dst))
	}
	c.meta, c.owned, c.fill = meta, nil, nil
}

// readSet returns set s's ways without touching them: the cache's own, its
// parent's, or, for a set a filled cache has not built, dst (len ways)
// built from the closed form. The result must not be written through.
func (c *Cache) readSet(s int, dst []way) []way {
	switch {
	case c.owned == nil || c.owned[s>>6]&(1<<(s&63)) != 0:
		return c.meta[s*c.ways : (s+1)*c.ways]
	case c.parent != nil:
		return c.parent.readSet(s, dst)
	case c.fill.slot[s] != 0:
		base := int(c.fill.slot[s]-1) * c.ways
		return c.meta[base : base+c.ways]
	}
	c.build(s, dst)
	return dst
}

// build writes set s of a filled cache, as its inserts leave it, into dst
// (len ways). The set's inserts are the stream lines in it. When they are
// distinct, within a stream's region they form two arithmetic progressions
// of step sets, one on each side of the cursor's wrap; build keeps the
// newest W of them in dst, ascending by tick after any invalid ways, then
// puts each in the way the closed form gives it. Otherwise replay builds
// the set.
func (c *Cache) build(s int, dst []way) {
	if !c.fill.distinct {
		c.replay(s, dst)
		return
	}
	clear(dst)
	sets := uint64(c.sets)
	var m, k0 uint64 // the set's inserts so far; the stream's first line number
	for _, st := range c.fill.streams {
		flags := uint64(wayValid)
		if st.Dirty {
			flags |= wayDirty
		}
		// Region line l is in set s when l = r (mod sets). Stream line k
		// is region line Cur-1-k before the wrap and Cur-1-k+Span after.
		r := (uint64(s) + sets - st.Base%sets) % sets
		before := min(st.N, st.Cur)
		m += c.insertRun(dst, st.Base, r, st.Cur-before, st.Cur, k0+st.Cur-1, flags)
		if st.N > st.Cur {
			m += c.insertRun(dst, st.Base, r, st.Span-(st.N-st.Cur), st.Span, k0+st.Cur-1+st.Span, flags)
		}
		k0 += st.N
	}
	// Insert j of the set's m lands in way W-1-(j mod W). dst[q] holds
	// insert m-W+q (an invalid way when that is negative), so way
	// W-1-((m+q) mod W): the ways below W - m mod W take dst's head
	// reversed, and the rest its tail reversed.
	q := len(dst) - int(m%uint64(len(dst)))
	slices.Reverse(dst[:q])
	slices.Reverse(dst[q:])
}

// insertRun offers build's newest-W selection in dst the stream lines of
// region lines l in [lo, hi) with l = r (mod sets), stream line kTop-l for
// region line l, and returns how many it offered.
func (c *Cache) insertRun(dst []way, base, r, lo, hi, kTop, flags uint64) uint64 {
	sets := uint64(c.sets)
	var n uint64
	for l := lo + (r+sets-lo%sets)%sets; l < hi; l += sets {
		n++
		meta := (uint64(c.fill.pos[kTop-l])+1)<<tickShift | flags
		if meta < dst[0].meta {
			continue
		}
		w := 0
		for ; w+1 < len(dst) && dst[w+1].meta < meta; w++ {
			dst[w] = dst[w+1]
		}
		dst[w] = way{tag: base + l, meta: meta}
	}
	return n
}

// replay writes set s of a filled cache whose lines repeat into dst (len
// ways): it gathers the set's inserts, sorts them by tick and sends them
// through Access on a one-set view of dst, each at its own tick. Region
// line l = r (mod sets) holds the stream lines (Cur-1-l) mod Span + j*Span
// below N. A key holds an insert's tick (pos+1) in its high half, and its
// index in tags and its dirty bit in the low half. The buffers live in
// replay's frame, so that build, which runs the closed form, keeps a small
// one.
func (c *Cache) replay(s int, dst []way) {
	var keyBuf, tagBuf [64]uint64
	keys, tags := keyBuf[:0], tagBuf[:0]
	sets := uint64(c.sets)
	var k0 uint64 // the stream's first line number
	for _, st := range c.fill.streams {
		var dirty uint64
		if st.Dirty {
			dirty = 1
		}
		for l := (uint64(s) + sets - st.Base%sets) % sets; l < st.Span; l += sets {
			k := st.Cur + st.Span - 1 - l
			if k >= st.Span {
				k -= st.Span
			}
			for ; k < st.N; k += st.Span {
				keys = append(keys, (uint64(c.fill.pos[k0+k])+1)<<32|uint64(len(tags))<<1|dirty)
				tags = append(tags, st.Base+l)
			}
		}
		k0 += st.N
	}
	slices.Sort(keys)
	clear(dst)
	// With one-byte lines and one set, an address is its line's tag.
	view := Cache{lineB: 1, linePow2: true, ways: c.ways, sets: 1, setPow2: true, meta: dst}
	for _, key := range keys {
		view.tick = key>>32 - 1 // Access advances it to the insert's tick
		view.Access(tags[uint32(key)>>1], key&1 != 0)
	}
}

// Contains reports whether the line holding addr is cached (no LRU update).
func (c *Cache) Contains(addr uint64) bool {
	_, ok := c.lookup(addr)
	return ok
}

// IsDirty reports whether the line holding addr is cached dirty.
func (c *Cache) IsDirty(addr uint64) bool {
	w, ok := c.lookup(addr)
	return ok && w.meta&wayDirty != 0
}

func (c *Cache) lookup(addr uint64) (way, bool) {
	lineIdx := c.lineIndex(addr)
	for _, w := range c.readSet(c.set(lineIdx), make([]way, c.ways)) {
		if w.meta&wayValid != 0 && w.tag == lineIdx {
			return w, true
		}
	}
	return way{}, false
}

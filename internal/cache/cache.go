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
// Two kinds do not:
//   - a filled cache (NewFilledHierarchy) holds no set: it builds each
//     from its inserts whenever it is read, and is never written, so
//     Access on it panics;
//   - a child (Child) reads each set through to its frozen parent until an
//     access first touches it, then copies it into its own ways and marks
//     it owned.
type Cache struct {
	lineB     int
	lineShift uint // log2(lineB) when lineB is a power of two
	linePow2  bool
	ways      int
	sets      int
	setMask   uint64 // sets-1 when sets is a power of two (the common case)
	setPow2   bool
	meta      []way // sets*ways, set-major; nil in a filled cache
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

// WalkStepB is the distance between a Walk's reads, the granularity of
// the workload generator's hot accesses.
const WalkStepB = 64

// Walk is a forward walk of N reads, WalkStepB bytes apart, from byte
// address Start, a multiple of WalkStepB. A filled cache takes it after
// every stream insert.
type Walk struct {
	Start, N uint64
}

// streamFill is a filled cache's inserts: the streams', then the walk's.
//
// The walk reaches a level as one read per unit it starts: a line of the
// level above (unitB bytes), or a walk step at L1, where unitB is
// WalkStepB. Those reads touch the level's lines walkFirst, walkFirst+1,
// ... in order, each in one burst whose first read inserts it and whose
// last leaves it with the tick of the last unit it holds; set s holds
// walkQ of them, one more when (s - walkFirst) mod sets < walkRem.
type streamFill struct {
	pos      []int32 // pos[k] is the insert index of stream line k
	streams  []Stream
	distinct bool // no line repeats: no stream laps, no regions overlap, the walk misses them

	walkFirst, walkQ, walkRem uint64
	unitB                     uint64
	unitShift                 uint   // log2(unitB) when unitB is a power of two, else 0
	tickOff                   uint64 // the walk's read of unit u has tick tickOff+u
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

// newFilled returns a cache in exactly the state New(sizeBytes, lineB,
// ways) reaches after n = len(pos) calls to Access, where insert i is the
// stream line k with pos[k] = i, and then walk's reads as they reach this
// level — tags, dirty bits, LRU ticks, way positions and tick alike —
// except that its hit and miss counters start at zero. The streams' lines
// are numbered in order, so line k of streams[1] is line k + streams[0].N.
// pos must be a permutation of 0..n-1. The walk reaches this level in
// units of unitB bytes, each as one read at its first walk step: the lines
// of the level above, which must nest in this level's, or WalkStepB when
// the walk itself reads this level. No unit is longer than a line, so the
// walk skips no line.
//
// A set's state depends only on its own inserts, so newFilled writes no
// set; each is built whenever it is read. When no stream laps its region,
// no two regions overlap and the walk's lines lie outside them, the
// inserts are distinct lines and all miss: Access fills an empty set's
// ways from W-1 down to 0 and then evicts them in the same rotation, so a
// set's j-th insert lands in way W-1-(j mod W) and the set ends holding
// its last W inserts, a closed form the build writes directly. A stream
// insert i ends with tick i+1; a walk line's first read inserts it and its
// later reads hit it while it is the set's newest, leaving it the tick of
// its last read. Otherwise lines repeat, and the build replays the set's
// inserts through Access in tick order.
func newFilled(sizeBytes, lineB, ways int, pos []int32, walk Walk, unitB int, streams ...Stream) *Cache {
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
	f := &streamFill{pos: pos, streams: streams}
	c.tick = n
	if walk.N > 0 {
		if walk.Start%WalkStepB != 0 || unitB > lineB || unitB != WalkStepB && lineB%unitB != 0 {
			panic("cache: a walk starts on a step, and its units are steps or nest in lines")
		}
		f.unitB = uint64(unitB)
		if unitB&(unitB-1) == 0 {
			f.unitShift = uint(bits.TrailingZeros(uint(unitB)))
		}
		end := walk.Start + (walk.N-1)*WalkStepB // its last read
		first, last := c.lineIndex(walk.Start), c.lineIndex(end)
		for _, st := range streams {
			distinct = distinct && (last < st.Base || st.Base+st.Span <= first)
		}
		// The walk's u-th read here, of unit unit(Start)+u, has tick n+u+1.
		f.tickOff = n + 1 - f.unit(walk.Start)
		c.tick = f.tickOff + f.unit(end)
		lines := last - first + 1
		f.walkFirst, f.walkQ, f.walkRem = first, lines/uint64(c.sets), lines%uint64(c.sets)
	}
	f.distinct = distinct
	c.fill = f
	c.owned = make([]uint64, (c.sets+63)/64)
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

// Release returns the cache's way array to the pool; a filled cache has
// none. The cache must not be used afterwards; callers release only when
// they own the last reference (e.g. a finished simulation tearing down),
// and never a child's parent.
func (c *Cache) Release() {
	if c.meta == nil {
		return
	}
	p, _ := metaPools.LoadOrStore(len(c.meta), &sync.Pool{})
	p.(*sync.Pool).Put(c.meta)
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
// is returned. write marks the line dirty. A filled cache is read-only:
// Access on it panics, and its children take the accesses.
func (c *Cache) Access(addr uint64, write bool) (hit bool, victim Victim, evicted bool) {
	lineIdx := c.lineIndex(addr)
	s := c.set(lineIdx)
	base := s * c.ways
	if c.owned != nil && c.owned[s>>6]&(1<<(s&63)) == 0 {
		base = c.locate(s)
	}
	c.tick++
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

// locate returns where set s's ways start in a child's meta after copying
// the set from its parent and marking it owned.
func (c *Cache) locate(s int) int {
	if c.parent == nil {
		panic("cache: Access on a filled cache, which is read-only; access a Child of it")
	}
	base := s * c.ways
	dst := c.meta[base : base+c.ways]
	copy(dst, c.parent.readSet(s, dst))
	c.owned[s>>6] |= 1 << (s & 63)
	return base
}

// readSet returns set s's ways without touching them: the cache's own, its
// parent's, or, for a filled cache, dst (len ways) built from its inserts.
// The result must not be written through.
func (c *Cache) readSet(s int, dst []way) []way {
	switch {
	case c.owned == nil || c.owned[s>>6]&(1<<(s&63)) != 0:
		return c.meta[s*c.ways : (s+1)*c.ways]
	case c.parent != nil:
		return c.parent.readSet(s, dst)
	}
	c.build(s, dst)
	return dst
}

// build writes set s of a filled cache, as its inserts leave it, into dst
// (len ways). The set's inserts are the stream lines in it, then the
// walk's. When they are distinct, within a stream's region they form two
// arithmetic progressions of step sets, one on each side of the cursor's
// wrap; build keeps the newest W of them in dst, ascending by tick after
// any invalid ways. The walk's lines in the set are one more progression,
// ascending by tick and newer than every stream line, so its last W
// displace the oldest. Then build puts each insert in the way the closed
// form gives it. Otherwise replay builds the set.
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
	if x, n := c.walkLines(s); n > 0 {
		keep := min(n, uint64(len(dst)))
		copy(dst, dst[keep:])
		for w, x := len(dst)-int(keep), x+(n-keep)*sets; w < len(dst); w, x = w+1, x+sets {
			dst[w] = way{tag: x, meta: c.walkTick(x)<<tickShift | wayValid}
		}
		m += n
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
// ways): it gathers the set's stream inserts, sorts them by tick and sends
// them through Access on a one-set view of dst, each at its own tick, then
// does the same with the walk's lines, which follow them in line order.
// Region line l = r (mod sets) holds the stream lines (Cur-1-l) mod Span +
// j*Span below N. A key holds an insert's tick (pos+1) in its high half,
// and its index in tags and its dirty bit in the low half. The buffers
// live in replay's frame, so that build, which runs the closed form, keeps
// a small one.
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
	// A walk line's later reads hit it while it is the set's newest line,
	// and a hit changes only its tick, so one read at the tick of the last
	// leaves the set as the whole burst does.
	x, n := c.walkLines(s)
	for ; n > 0; x, n = x+sets, n-1 {
		view.tick = c.walkTick(x) - 1
		view.Access(x, false)
	}
}

// walkLines returns the first of the walk's lines in set s and how many
// there are, step sets apart.
func (c *Cache) walkLines(s int) (first, n uint64) {
	f, sets := c.fill, uint64(c.sets)
	d := (uint64(s) + sets - f.walkFirst%sets) % sets
	n = f.walkQ
	if d < f.walkRem {
		n++
	}
	return f.walkFirst + d, n
}

// walkTick returns the tick walk line x ends with, that of its last read:
// the read of the unit holding the line's last byte, or of the walk's last
// unit, whose tick is the filled cache's.
func (c *Cache) walkTick(x uint64) uint64 {
	return min(c.tick, c.fill.tickOff+c.fill.unit((x+1)*uint64(c.lineB)-1))
}

// unit returns the index of the walk unit holding byte address addr.
func (f *streamFill) unit(addr uint64) uint64 {
	if f.unitShift != 0 {
		return addr >> f.unitShift
	}
	return addr / f.unitB
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

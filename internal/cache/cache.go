// Package cache implements the write-back cache hierarchy of the simulated
// CMP: per-core private L1 and L2 SRAM caches and a private off-chip DRAM
// L3 whose line size equals the PCM memory line (Table 1). The hierarchy is
// functional (tags + dirty bits, true LRU) and reports which level served
// each access and which memory operations (demand fills and dirty
// writebacks) it generated; timing is applied by the CPU model.
package cache

import (
	"math/bits"
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
// prefilled hierarchies are snapshot-cloned wholesale, so the layout is
// packed to 16 bytes: valid and dirty live in the low bits of the LRU word.
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
type Cache struct {
	lineB     int
	lineShift uint // log2(lineB) when lineB is a power of two
	linePow2  bool
	ways      int
	sets      int
	setMask   uint64 // sets-1 when sets is a power of two (the common case)
	setPow2   bool
	meta      []way // sets*ways, set-major
	tick      uint64
	hits      uint64
	misses    uint64
}

// metaPools recycles way arrays by length. A full figure sweep builds
// hundreds of hierarchies (megabytes of metadata each); reusing released
// arrays keeps clones on warm pages instead of fault-zeroing fresh ones.
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
	if lineB <= 0 || ways <= 0 {
		panic("cache: line size and ways must be positive")
	}
	sets := sizeBytes / (lineB * ways)
	if sets <= 0 {
		panic("cache: capacity below one set")
	}
	c := &Cache{
		lineB: lineB,
		ways:  ways,
		sets:  sets,
		meta:  newMeta(sets*ways, true),
	}
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

// LineBytes reports the cache's line size.
func (c *Cache) LineBytes() int { return c.lineB }

// Stats reports accumulated demand hits and misses.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// Clone returns an independent deep copy — same tags, dirty bits, LRU state
// and statistics. Used to snapshot prefilled hierarchies.
func (c *Cache) Clone() *Cache {
	cp := *c
	cp.meta = newMeta(len(c.meta), false)
	copy(cp.meta, c.meta)
	return &cp
}

// Release returns the cache's metadata array to the pool. The cache must
// not be used afterwards; callers release only when they own the last
// reference (e.g. a finished simulation tearing down).
func (c *Cache) Release() {
	if c.meta == nil {
		return
	}
	p, _ := metaPools.LoadOrStore(len(c.meta), &sync.Pool{})
	m := c.meta
	c.meta = nil
	p.(*sync.Pool).Put(m)
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
	base := c.set(lineIdx) * c.ways
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

// AccessBatch has exactly the effect of the n calls Access(at(i)) for
// i = 0, 1, ..., n-1 in that order, with the victims discarded, but it
// replays them one set at a time. It counting-sorts the accesses by set
// (stably, so each set keeps its own order) and then runs each set's
// accesses back to back through Access, each at the tick it would have had
// in sequence. Accesses to different sets touch disjoint ways and share only
// the tick and the hit/miss counters, so the metadata comes out
// byte-identical to the sequential calls — way positions and LRU ticks
// included — while the probes walk the metadata in order instead of landing
// in a random set each. at must be a pure function of i: it is called twice
// per index.
func (c *Cache) AccessBatch(n int, at func(i int) (addr uint64, write bool)) {
	if int64(n) >= 1<<31 {
		panic("cache: batch of 2^31 or more accesses")
	}
	// next[s+1] counts set s's accesses; the prefix sum turns next[s] into
	// the first slot of set s's bucket, and the scatter advances it to the
	// bucket's end.
	next := make([]int32, c.sets+1)
	for i := 0; i < n; i++ {
		addr, _ := at(i)
		next[c.set(c.lineIndex(addr))+1]++
	}
	for s := 1; s <= c.sets; s++ {
		next[s] += next[s-1]
	}
	addrs := make([]uint64, n)
	seqs := make([]uint32, n) // i<<1 | write
	for i := 0; i < n; i++ {
		addr, write := at(i)
		s := c.set(c.lineIndex(addr))
		j := next[s]
		next[s]++
		addrs[j] = addr
		seqs[j] = uint32(i) << 1
		if write {
			seqs[j] |= 1
		}
	}
	tick0 := c.tick
	for j, q := range seqs {
		c.tick = tick0 + uint64(q>>1) // Access advances it to tick0+i+1
		c.Access(addrs[j], q&1 != 0)
	}
	c.tick = tick0 + uint64(n)
}

// FillDistinct has exactly the effect of the n = len(order) calls
// Access(line(order[i])) for i = 0, 1, ..., n-1 in that order on a cache
// that has never been accessed, provided order is a permutation of 0..n-1
// and line maps distinct k to distinct cache lines. It panics on a used
// cache. Such a sequence is all misses: Access fills an empty set's ways
// from W-1 down to 0 and then evicts them in the same rotation, so a set's
// j-th insert lands in way W-1-(j mod W) and the set ends holding its last
// W inserts, insert i with tick i+1. FillDistinct counts each set's inserts
// in line order (the counts do not depend on the order, and ascending k
// usually walks the sets in order), then walks order backwards and writes
// each set's last W inserts straight into their ways, with no probe and no
// sort. line must be a pure function of k: it is called twice per insert.
func (c *Cache) FillDistinct(order []int, line func(k int) (addr uint64, write bool)) {
	if c.tick != 0 {
		panic("cache: FillDistinct on a cache that has been accessed")
	}
	n := len(order)
	if int64(n) >= 1<<31 {
		panic("cache: fill of 2^31 or more inserts")
	}
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

// Contains reports whether the line holding addr is cached (no LRU update).
func (c *Cache) Contains(addr uint64) bool {
	lineIdx := c.lineIndex(addr)
	base := c.set(lineIdx) * c.ways
	set := c.meta[base : base+c.ways]
	for w := range set {
		if set[w].meta&wayValid != 0 && set[w].tag == lineIdx {
			return true
		}
	}
	return false
}

// IsDirty reports whether the line holding addr is cached dirty.
func (c *Cache) IsDirty(addr uint64) bool {
	lineIdx := c.lineIndex(addr)
	base := c.set(lineIdx) * c.ways
	set := c.meta[base : base+c.ways]
	for w := range set {
		if set[w].meta&wayValid != 0 && set[w].tag == lineIdx {
			return set[w].meta&wayDirty != 0
		}
	}
	return false
}

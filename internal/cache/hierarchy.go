package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"unsafe"

	"fpb/internal/sim"
)

// Level identifies which level served a demand access.
type Level int

const (
	LevelL1 Level = 1
	LevelL2 Level = 2
	LevelL3 Level = 3
	// LevelMemory means the access missed every cache and needs a PCM
	// read (demand fill) before it can complete.
	LevelMemory Level = 4
)

// Outcome describes the consequences of one demand access through the
// hierarchy. Its slices are the hierarchy's scratch space: they stay valid
// only until that hierarchy's next Access.
type Outcome struct {
	// Level that served the access (LevelMemory = PCM demand read of
	// FillAddr required; the core blocks on it).
	Level Level
	// FillAddr is the L3-line-aligned address to read from memory when
	// Level == LevelMemory.
	FillAddr uint64
	// Writebacks are L3-line-aligned dirty evictions that must be
	// written to PCM (usually 0 or 1; writeback-allocate cascades can
	// produce more).
	Writebacks []uint64
	// FillReads are additional off-critical-path PCM reads needed to
	// fill L3 lines allocated by writebacks that missed L3
	// (read-for-ownership); the core does not wait for them.
	FillReads []uint64
}

// Hierarchy is one core's private three-level cache stack.
type Hierarchy struct {
	l1, l2, l3 *Cache
	cfg        *sim.Config

	// The last Outcome's Writebacks and FillReads; every Access reuses
	// their backing arrays.
	writebacks, fillReads []uint64
}

// NewHierarchy builds the per-core hierarchy from the configuration, every
// level empty.
func NewHierarchy(cfg *sim.Config) *Hierarchy {
	return &Hierarchy{
		l1:  New(cfg.L1SizeKB*1024, cfg.L1LineB, cfg.L1Ways),
		l2:  New(cfg.L2SizeKB*1024, cfg.L2LineB, cfg.L2Ways),
		l3:  New(cfg.L3SizeMB*1024*1024, cfg.L3LineB, cfg.L3Ways),
		cfg: cfg,
	}
}

// NewFilledHierarchy returns a read-only hierarchy in the state that
// NewHierarchy reaches after the streams' inserts into its L3 (insert i
// is the stream line k with pos[k] = i, as the L3 alone sees them) and
// then walk's reads through Access, hit and miss counters zeroed. Each
// level holds no set and builds each whenever it is read, so the
// hierarchy costs the positions and three bitsets: L1 and L2 hold the
// walk alone, and L3 the streams and then the walk. Its lines must nest,
// and L1's must be at least WalkStepB (sim.Config.Validate checks both).
// Simulations access Children of it; Access on it panics.
func NewFilledHierarchy(cfg *sim.Config, pos []int32, walk Walk, streams ...Stream) *Hierarchy {
	return &Hierarchy{
		l1:  newFilled(cfg.L1SizeKB*1024, cfg.L1LineB, cfg.L1Ways, nil, walk, WalkStepB),
		l2:  newFilled(cfg.L2SizeKB*1024, cfg.L2LineB, cfg.L2Ways, nil, walk, cfg.L1LineB),
		l3:  newFilled(cfg.L3SizeMB*1024*1024, cfg.L3LineB, cfg.L3Ways, pos, walk, cfg.L2LineB, streams...),
		cfg: cfg,
	}
}

// Child returns a copy-on-write copy of the hierarchy bound to cfg: each
// level is a Child of h's, so creating it copies no sets. The workload
// harness prefills a hierarchy once per distinct warm-up and hands every
// simulation of it a child. h must not change afterwards.
func (h *Hierarchy) Child(cfg *sim.Config) *Hierarchy {
	return &Hierarchy{
		l1:  h.l1.Child(),
		l2:  h.l2.Child(),
		l3:  h.l3.Child(),
		cfg: cfg,
	}
}

// Release returns all three levels' way arrays to the pool; see
// Cache.Release. The hierarchy must not be used afterwards.
func (h *Hierarchy) Release() {
	h.l1.Release()
	h.l2.Release()
	h.l3.Release()
}

// MetaBytes reports the bytes of metadata the hierarchy itself holds — way
// arrays, owned bits, and a filled L3's insert positions — not counting a
// child's parent: what a prefill snapshot keeps resident.
func (h *Hierarchy) MetaBytes() int {
	return h.l1.metaBytes() + h.l2.metaBytes() + h.l3.metaBytes()
}

func (c *Cache) metaBytes() int {
	n := cap(c.meta)*int(unsafe.Sizeof(way{})) + len(c.owned)*8
	if f := c.fill; f != nil {
		n += len(f.pos) * 4
	}
	return n
}

// Digest returns the SHA-256 of the hierarchy's cache state: per level, the
// line size, associativity, set count, LRU tick and hit/miss counters, then
// every way's tag and metadata word in set order, all little-endian. Sets a
// level has not made its own are read through to its parent or built.
// Equal digests mean equal cache state; golden tests pin prefill with it.
func (h *Hierarchy) Digest() [sha256.Size]byte {
	d := sha256.New()
	var buf []byte
	for _, c := range []*Cache{h.l1, h.l2, h.l3} {
		buf = c.appendState(buf[:0])
		d.Write(buf)
	}
	var sum [sha256.Size]byte
	d.Sum(sum[:0])
	return sum
}

// appendState appends the cache's state to buf as Digest hashes it.
func (c *Cache) appendState(buf []byte) []byte {
	for _, v := range []uint64{uint64(c.lineB), uint64(c.ways), uint64(c.sets), c.tick, c.hits, c.misses} {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	scratch := make([]way, c.ways)
	for s := 0; s < c.sets; s++ {
		for _, w := range c.readSet(s, scratch) {
			buf = binary.LittleEndian.AppendUint64(buf, w.tag)
			buf = binary.LittleEndian.AppendUint64(buf, w.meta)
		}
	}
	return buf
}

// L1 returns the L1 cache (tests and telemetry).
func (h *Hierarchy) L1() *Cache { return h.l1 }

// L2 returns the L2 cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// L3 returns the L3 DRAM cache.
func (h *Hierarchy) L3() *Cache { return h.l3 }

// Access runs one demand access (write=true for stores) through the stack
// and returns its outcome, whose slices the next Access overwrites. Dirty
// victims cascade: an L1 victim is written back into L2, an L2 victim into
// L3, and an L3 victim becomes a PCM write.
func (h *Hierarchy) Access(addr uint64, write bool) Outcome {
	h.writebacks, h.fillReads = h.writebacks[:0], h.fillReads[:0]

	if hit, v, ev := h.l1.Access(addr, write); hit {
		return Outcome{Level: LevelL1}
	} else if ev && v.Dirty {
		h.writebackInto(h.l2, v.Addr)
	}

	if hit, v, ev := h.l2.Access(addr, false); hit {
		return h.outcome(LevelL2, 0)
	} else if ev && v.Dirty {
		h.writebackInto(h.l3, v.Addr)
	}

	if hit, v, ev := h.l3.Access(addr, false); hit {
		return h.outcome(LevelL3, 0)
	} else if ev && v.Dirty {
		h.writebacks = append(h.writebacks, v.Addr)
	}

	return h.outcome(LevelMemory, addr/uint64(h.cfg.L3LineB)*uint64(h.cfg.L3LineB))
}

// outcome returns the Outcome of an access served at level l with the
// writebacks and fill reads it gathered.
func (h *Hierarchy) outcome(l Level, fillAddr uint64) Outcome {
	return Outcome{Level: l, FillAddr: fillAddr, Writebacks: h.writebacks, FillReads: h.fillReads}
}

// writebackInto installs a dirty victim line into the next level,
// cascading any dirty eviction it causes. A writeback that misses L3
// allocates the line and records a read-for-ownership fill.
func (h *Hierarchy) writebackInto(next *Cache, victimAddr uint64) {
	hit, v, ev := next.Access(victimAddr, true)
	if ev && v.Dirty {
		if next == h.l2 {
			h.writebackInto(h.l3, v.Addr)
		} else {
			h.writebacks = append(h.writebacks, v.Addr)
		}
	}
	if !hit && next == h.l3 {
		h.fillReads = append(h.fillReads,
			victimAddr/uint64(h.cfg.L3LineB)*uint64(h.cfg.L3LineB))
	}
}

// ResetStats zeroes every level's hit/miss counters, where a filled
// hierarchy starts them.
func (h *Hierarchy) ResetStats() {
	h.l1.hits, h.l1.misses = 0, 0
	h.l2.hits, h.l2.misses = 0, 0
	h.l3.hits, h.l3.misses = 0, 0
}

// HitLatency returns the cycles a demand access served at the given level
// costs the core, per Table 1's latency parameters. LevelMemory returns
// only the on-chip portion — the PCM read latency is added by the memory
// controller when the read completes.
func (h *Hierarchy) HitLatency(l Level) sim.Cycle {
	cfg := h.cfg
	switch l {
	case LevelL1:
		return cfg.L1HitCycles
	case LevelL2:
		return cfg.L1HitCycles + cfg.CPUToL2 + cfg.L2HitCycles
	case LevelL3:
		return cfg.L1HitCycles + cfg.CPUToL2 + cfg.L2HitCycles +
			cfg.CPUToL3 + cfg.L3HitCycles
	default:
		// Tag checks all the way down; the PCM access itself is
		// accounted by the memory controller.
		return cfg.L1HitCycles + cfg.CPUToL2 + cfg.L2HitCycles +
			cfg.CPUToL3 + cfg.L3HitCycles
	}
}

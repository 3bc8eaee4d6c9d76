package cache

import (
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
// hierarchy.
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
}

// NewHierarchy builds the per-core hierarchy from the configuration.
func NewHierarchy(cfg *sim.Config) *Hierarchy {
	return &Hierarchy{
		l1:  New(cfg.L1SizeKB*1024, cfg.L1LineB, cfg.L1Ways),
		l2:  New(cfg.L2SizeKB*1024, cfg.L2LineB, cfg.L2Ways),
		l3:  New(cfg.L3SizeMB*1024*1024, cfg.L3LineB, cfg.L3Ways),
		cfg: cfg,
	}
}

// Clone returns an independent deep copy of the hierarchy bound to cfg
// (pass the original's Cfg to keep sharing it). Used by the workload
// harness to snapshot a prefilled hierarchy once and stamp out copies for
// every scheme instead of re-running the multi-hundred-thousand-access
// prefill per scheme.
func (h *Hierarchy) Clone(cfg *sim.Config) *Hierarchy {
	return &Hierarchy{
		l1:  h.l1.Clone(),
		l2:  h.l2.Clone(),
		l3:  h.l3.Clone(),
		cfg: cfg,
	}
}

// Release returns all three levels' metadata arrays to the pool; see
// Cache.Release. The hierarchy must not be used afterwards.
func (h *Hierarchy) Release() {
	h.l1.Release()
	h.l2.Release()
	h.l3.Release()
}

// MetaBytes reports the size of the hierarchy's metadata arrays: what a
// Clone copies and a snapshot of it keeps resident.
func (h *Hierarchy) MetaBytes() int {
	return (len(h.l1.meta) + len(h.l2.meta) + len(h.l3.meta)) * int(unsafe.Sizeof(way{}))
}

// L1 returns the L1 cache (tests and telemetry).
func (h *Hierarchy) L1() *Cache { return h.l1 }

// L2 returns the L2 cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// L3 returns the L3 DRAM cache.
func (h *Hierarchy) L3() *Cache { return h.l3 }

// Access runs one demand access (write=true for stores) through the stack
// and returns its outcome. Dirty victims cascade: an L1 victim is written
// back into L2, an L2 victim into L3, and an L3 victim becomes a PCM
// write.
func (h *Hierarchy) Access(addr uint64, write bool) Outcome {
	var out Outcome

	if hit, v, ev := h.l1.Access(addr, write); hit {
		out.Level = LevelL1
		return out
	} else if ev && v.Dirty {
		h.writebackInto(h.l2, v.Addr, &out)
	}

	if hit, v, ev := h.l2.Access(addr, false); hit {
		out.Level = LevelL2
		return out
	} else if ev && v.Dirty {
		h.writebackInto(h.l3, v.Addr, &out)
	}

	if hit, v, ev := h.l3.Access(addr, false); hit {
		out.Level = LevelL3
		return out
	} else if ev && v.Dirty {
		out.Writebacks = append(out.Writebacks, v.Addr)
	}

	out.Level = LevelMemory
	out.FillAddr = addr / uint64(h.cfg.L3LineB) * uint64(h.cfg.L3LineB)
	return out
}

// writebackInto installs a dirty victim line into the next level,
// cascading any dirty eviction it causes. A writeback that misses L3
// allocates the line and records a read-for-ownership fill.
func (h *Hierarchy) writebackInto(next *Cache, victimAddr uint64, out *Outcome) {
	hit, v, ev := next.Access(victimAddr, true)
	if ev && v.Dirty {
		if next == h.l2 {
			h.writebackInto(h.l3, v.Addr, out)
		} else {
			out.Writebacks = append(out.Writebacks, v.Addr)
		}
	}
	if !hit && next == h.l3 {
		out.FillReads = append(out.FillReads,
			victimAddr/uint64(h.cfg.L3LineB)*uint64(h.cfg.L3LineB))
	}
}

// L3CapacityLines returns how many lines the L3 holds.
func (h *Hierarchy) L3CapacityLines() int {
	return h.cfg.L3SizeMB * 1024 * 1024 / h.cfg.L3LineB
}

// ResetStats zeroes every level's hit/miss counters (after warm-up).
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

package pcm

import (
	"bytes"
	"math"
	"sync"
)

// The draw memo keeps each write's '01'/'10' iteration draws, so a write
// built again (every scheme of a sweep builds the same writes) reads them
// instead of drawing them again. A hit is exact by construction: Build
// reseeds the write's stream from its content hash, a '01'/'10' cell takes
// exactly 13 outputs of it and every other cell none, so the k-th such
// cell's count depends only on the law, the seed, k and whether the cell
// targets '10'. An entry is keyed by its seed within its law's memo and
// serves a build only when the number of such cells and each one's target
// agree, so not even a seed collision can serve another write's draws.
const (
	// drawMemoSlabBytes is the size of the append-only slabs that hold the
	// entries. A write whose entry would not fit one slab (more than ~58k
	// '01'/'10' cells) is not memoized.
	drawMemoSlabBytes = 64 << 10
	// drawMemoIndexBytes is what each entry is charged for its index slot
	// (key, reference and map overhead) on top of its slab bytes.
	drawMemoIndexBytes = 32
	// maxDrawMemoBytes bounds one law's memo: its slabs plus its entries'
	// index charge. Eviction: a publish that would pass the bound first
	// empties the memo (its index is cleared and its slabs are refilled from
	// the first), so entries are never evicted one at a time and the slabs
	// never outgrow the bound. 32 MiB holds about 230k writes of the Fig. 18
	// mix; one sweep of the four write-heaviest apps at 200k instr/core
	// publishes about 16k.
	maxDrawMemoBytes = 32 << 20
	// maxDrawLaws bounds how many laws have a memo: a job spec chooses its
	// law, so a long-running fpbd would otherwise keep one memo per law it
	// has seen. A new law past the bound replaces the law whose last
	// builder was made longest ago; builders that hold the replaced memo
	// keep using it until they are dropped.
	maxDrawLaws = 4
)

// drawLaw is everything a '01'/'10' draw depends on besides its stream:
// the iteration model's parameters, floats by their bits.
type drawLaw struct {
	bitsPerCell, iterMax int
	mix01, mix10         [3]uint64
}

func (m *IterModel) law() drawLaw {
	bitsOf := func(x phaseMix) [3]uint64 {
		return [3]uint64{math.Float64bits(x.f1), math.Float64bits(x.fastMean), math.Float64bits(x.slowMean)}
	}
	return drawLaw{m.bitsPerCell, m.iterMax, bitsOf(m.mix01), bitsOf(m.mix10)}
}

// drawMemo holds one law's entries. An entry is the write's n '01'/'10'
// draws, one byte each, then n bits (set for a cell targeting '10'), in one
// slab.
type drawMemo struct {
	mu       sync.Mutex
	maxBytes int
	index    map[uint64]drawRef // by the write's seed
	slabs    [][]byte
	cur, off int // the slab being filled and the bytes used in it
	hits     uint64
	misses   uint64
	used     uint64 // drawMemos.stamp of the law's last NewBuilder; guarded by drawMemos
}

// drawRef places an entry: its n draws start at byte pos of the slabs
// laid end to end.
type drawRef struct{ pos, n uint32 }

func newDrawMemo(maxBytes int) *drawMemo {
	return &drawMemo{maxBytes: maxBytes, index: make(map[uint64]drawRef)}
}

// lookup writes the draws kept for seed into iters at the cells mid names
// and reports whether it found an entry whose targets match kinds.
func (m *drawMemo) lookup(seed uint64, mid, iters []int, kinds []byte) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.index[seed]; ok && int(r.n) == len(mid) {
		e := m.slabs[r.pos/drawMemoSlabBytes][r.pos%drawMemoSlabBytes:][:len(mid)+len(kinds)]
		if bytes.Equal(e[len(mid):], kinds) {
			for k, i := range mid {
				iters[i] = int(e[k])
			}
			m.hits++
			return true
		}
	}
	m.misses++
	return false
}

// publish keeps the draws of the cells mid names, each below 256, as the
// entry of seed. It replaces any entry seed has (a concurrent build of the
// same write published first, or a colliding write did): every entry is
// exact, so either may serve.
func (m *drawMemo) publish(seed uint64, mid, iters []int, kinds []byte) {
	size := len(mid) + len(kinds)
	if size > drawMemoSlabBytes {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.off+size > drawMemoSlabBytes {
		m.cur, m.off = m.cur+1, 0
	}
	if max(m.cur+1, len(m.slabs))*drawMemoSlabBytes+(len(m.index)+1)*drawMemoIndexBytes > m.maxBytes {
		clear(m.index)
		m.cur, m.off = 0, 0
	}
	if m.cur == len(m.slabs) {
		m.slabs = append(m.slabs, make([]byte, drawMemoSlabBytes))
	}
	e := m.slabs[m.cur][m.off:][:size]
	for k, i := range mid {
		e[k] = byte(iters[i])
	}
	copy(e[len(mid):], kinds)
	m.index[seed] = drawRef{uint32(m.cur*drawMemoSlabBytes + m.off), uint32(len(mid))}
	m.off += size
}

// heldBytes is what the memo holds: its slabs and its entries' index charge.
func (m *drawMemo) heldBytes() int {
	return len(m.slabs)*drawMemoSlabBytes + len(m.index)*drawMemoIndexBytes
}

// drawMemos is the process's draw memo, one per law.
var drawMemos struct {
	sync.Mutex
	m     map[drawLaw]*drawMemo
	stamp uint64
}

// drawMemoFor returns the process's memo for law, making it if there is
// none.
func drawMemoFor(law drawLaw) *drawMemo {
	c := &drawMemos
	c.Lock()
	defer c.Unlock()
	c.stamp++
	d := c.m[law]
	if d == nil {
		if c.m == nil {
			c.m = make(map[drawLaw]*drawMemo)
		}
		if len(c.m) >= maxDrawLaws {
			var oldest drawLaw
			oldestUsed := ^uint64(0)
			for l, e := range c.m {
				if e.used < oldestUsed {
					oldest, oldestUsed = l, e.used
				}
			}
			delete(c.m, oldest)
		}
		d = newDrawMemo(maxDrawMemoBytes)
		c.m[law] = d
	}
	d.used = c.stamp
	return d
}

// MemoStats is the draw memo's size and traffic.
type MemoStats struct {
	Entries int // writes whose draws are kept
	Bytes   int // slab bytes plus the entries' index charge
	Hits    uint64
	Misses  uint64 // builds with '01'/'10' cells that drew them
}

// DrawMemoStats reports the process's draw memo, summed over the laws it
// keeps. It is execution telemetry: no result depends on it.
func DrawMemoStats() MemoStats {
	c := &drawMemos
	c.Lock()
	defer c.Unlock()
	var s MemoStats
	for _, d := range c.m {
		d.mu.Lock()
		s.Entries += len(d.index)
		s.Bytes += d.heldBytes()
		s.Hits += d.hits
		s.Misses += d.misses
		d.mu.Unlock()
	}
	return s
}

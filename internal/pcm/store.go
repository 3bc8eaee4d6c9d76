package pcm

// pageLines is the number of lines per store page. With the default 256-byte
// line a page is 128 KB of content — big enough to amortize page lookups
// over the streaming regions, small enough that sparse address use does not
// balloon memory.
const pageLines = 512

// storePage is one lazily materialized span of pageLines consecutive lines.
type storePage struct {
	data    []byte   // pageLines * lineBytes
	written []uint64 // one bit per line: has it ever been written?
}

// Store is the content store for PCM main memory, a paged flat array: lines
// live in fixed-size pages materialized on first write to their span.
// Untouched lines read as nil (all zeros), matching the paper's Fig. 3
// assumption that memory initially contains 0s.
type Store struct {
	lineBytes int
	pages     map[uint64]*storePage
	lastIdx   uint64 // single-entry page lookup cache
	lastPage  *storePage
	count     int // lines ever written
	guard     storeGuard
}

// NewStore creates a store for lines of lineBytes bytes.
func NewStore(lineBytes int) *Store {
	return &Store{lineBytes: lineBytes, pages: make(map[uint64]*storePage), lastIdx: ^uint64(0)}
}

// LineBytes reports the line size.
func (s *Store) LineBytes() int { return s.lineBytes }

// Len reports how many distinct lines have been written.
func (s *Store) Len() int { return s.count }

// lookup returns the page holding lineNo, or nil if it was never
// materialized.
func (s *Store) lookup(pageIdx uint64) *storePage {
	if pageIdx == s.lastIdx {
		return s.lastPage
	}
	p := s.pages[pageIdx]
	if p != nil {
		s.lastIdx, s.lastPage = pageIdx, p
	}
	return p
}

// materialize returns the page holding lineNo, creating it if needed.
func (s *Store) materialize(pageIdx uint64) *storePage {
	if p := s.lookup(pageIdx); p != nil {
		return p
	}
	p := &storePage{
		data:    make([]byte, pageLines*s.lineBytes),
		written: make([]uint64, pageLines/64),
	}
	s.pages[pageIdx] = p
	s.lastIdx, s.lastPage = pageIdx, p
	return p
}

// Get returns the current content of the line at lineAddr, or nil if the
// line has never been written (all zeros). The returned slice is a view
// into the store, valid until the line is next written; callers must not
// mutate it — build with the fpbdebug tag to enforce this.
func (s *Store) Get(lineAddr uint64) []byte {
	lineNo := lineAddr / uint64(s.lineBytes)
	p := s.lookup(lineNo / pageLines)
	if p == nil {
		return nil
	}
	slot := lineNo % pageLines
	if p.written[slot/64]&(1<<(slot%64)) == 0 {
		return nil
	}
	line := p.data[int(slot)*s.lineBytes : (int(slot)+1)*s.lineBytes : (int(slot)+1)*s.lineBytes]
	s.guard.onGet(lineAddr, line)
	return line
}

// Put copies data into the line at lineAddr. The store never takes
// ownership of data; the line's storage is reused in place.
func (s *Store) Put(lineAddr uint64, data []byte) {
	s.Update(lineAddr, data)
}

// Update is Put reporting whether this is the line's first write — the
// combined check-and-store the controller uses for wear accounting without
// a separate lookup.
func (s *Store) Update(lineAddr uint64, data []byte) (fresh bool) {
	if len(data) != s.lineBytes {
		panic("pcm: Put with wrong line size")
	}
	lineNo := lineAddr / uint64(s.lineBytes)
	p := s.materialize(lineNo / pageLines)
	slot := lineNo % pageLines
	line := p.data[int(slot)*s.lineBytes : (int(slot)+1)*s.lineBytes]
	s.guard.onPut(lineAddr, line)
	copy(line, data)
	if p.written[slot/64]&(1<<(slot%64)) == 0 {
		p.written[slot/64] |= 1 << (slot % 64)
		s.count++
		return true
	}
	return false
}

package pcm

// chunkLines is the number of line slots per slab chunk. A store allocates
// its next chunk only when every slot of the last one is taken, so it holds
// at most chunkLines-1 unused slots whatever addresses are written.
const chunkLines = 64

// Store is the content store for PCM main memory. Each written line owns a
// slot in fixed-size slab chunks, assigned in first-write order and found
// through one map, so the store's memory follows the lines written rather
// than the address ranges they fall in. Chunks never move once allocated.
// Untouched lines read as nil (all zeros), matching the paper's Fig. 3
// assumption that memory initially contains 0s.
type Store struct {
	lineBytes int
	slots     map[uint64]int32 // line number → slot
	chunks    [][]byte         // chunkLines*lineBytes each
	writes    []uint64         // per slot: how often the line was written
	guard     storeGuard
}

// NewStore creates a store for lines of lineBytes bytes.
func NewStore(lineBytes int) *Store {
	return &Store{lineBytes: lineBytes, slots: make(map[uint64]int32)}
}

// LineBytes reports the line size.
func (s *Store) LineBytes() int { return s.lineBytes }

// Len reports how many distinct lines have been written.
func (s *Store) Len() int { return len(s.writes) }

// line returns slot i's content.
func (s *Store) line(i int32) []byte {
	off := int(i%chunkLines) * s.lineBytes
	return s.chunks[i/chunkLines][off : off+s.lineBytes : off+s.lineBytes]
}

// Get returns the current content of the line at lineAddr, or nil if the
// line has never been written (all zeros). The returned slice is a view
// into the store: it stays the line's storage however many other lines are
// written, and reads the line's content until the line is next written.
// Callers must not mutate it — build with the fpbdebug tag to enforce this.
func (s *Store) Get(lineAddr uint64) []byte {
	i, ok := s.slots[lineAddr/uint64(s.lineBytes)]
	if !ok {
		return nil
	}
	line := s.line(i)
	s.guard.onGet(lineAddr, line)
	return line
}

// Writes reports how many times the line at lineAddr has been written (0:
// never). The count is the line's content version: equal counts mean equal
// content.
func (s *Store) Writes(lineAddr uint64) uint64 {
	i, ok := s.slots[lineAddr/uint64(s.lineBytes)]
	if !ok {
		return 0
	}
	return s.writes[i]
}

// Put copies data into the line at lineAddr. The store never takes
// ownership of data; the line's storage is reused in place.
func (s *Store) Put(lineAddr uint64, data []byte) {
	s.Update(lineAddr, data)
}

// Update is Put returning the line's write count after this write (1: its
// first write), so the controller keeps its wear accounting without a
// second lookup.
func (s *Store) Update(lineAddr uint64, data []byte) uint64 {
	if len(data) != s.lineBytes {
		panic("pcm: Put with wrong line size")
	}
	lineNo := lineAddr / uint64(s.lineBytes)
	i, ok := s.slots[lineNo]
	if !ok {
		i = int32(len(s.writes))
		if i%chunkLines == 0 {
			s.chunks = append(s.chunks, make([]byte, chunkLines*s.lineBytes))
		}
		s.slots[lineNo] = i
		s.writes = append(s.writes, 0)
	}
	line := s.line(i)
	s.guard.onPut(lineAddr, line)
	copy(line, data)
	s.writes[i]++
	return s.writes[i]
}

package pcm

import (
	"runtime"
	"testing"
)

func TestStoreGetUntouchedIsNil(t *testing.T) {
	s := NewStore(64)
	if s.Get(0x40) != nil {
		t.Error("untouched line should be nil (all zeros)")
	}
	if s.Len() != 0 {
		t.Error("empty store has nonzero Len")
	}
}

func TestStorePutGetRoundTrip(t *testing.T) {
	s := NewStore(4)
	data := []byte{1, 2, 3, 4}
	s.Put(0x100, data)
	got := s.Get(0x100)
	for i := range data {
		if got[i] != data[i] {
			t.Fatal("Get returned wrong content")
		}
	}
	// The store copies on Put: mutating the caller's slice afterwards must
	// not change stored content.
	data[0] = 99
	if s.Get(0x100)[0] != 1 {
		t.Error("Put aliased the caller's slice instead of copying")
	}
	next := []byte{5, 6, 7, 8}
	s.Put(0x100, next)
	if got := s.Get(0x100); got[0] != 5 {
		t.Error("second Put did not replace content")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

func TestStoreUpdateReportsFreshness(t *testing.T) {
	s := NewStore(2)
	if n := s.Update(0x10, []byte{1, 2}); n != 1 {
		t.Errorf("first Update returned %d, want 1", n)
	}
	if n := s.Update(0x10, []byte{3, 4}); n != 2 {
		t.Errorf("second Update returned %d, want 2", n)
	}
	if n := s.Update(0x12, []byte{5, 6}); n != 1 {
		t.Errorf("Update of a different line returned %d, want 1", n)
	}
	if s.Writes(0x10) != 2 || s.Writes(0x12) != 1 || s.Writes(0x14) != 0 {
		t.Errorf("Writes = %d, %d, %d; want 2, 1, 0", s.Writes(0x10), s.Writes(0x12), s.Writes(0x14))
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

func TestStoreNeighborsWithinChunkStayNil(t *testing.T) {
	s := NewStore(8)
	// Lines 100 and 5000 take adjacent slots of one chunk; neither that
	// nor the chunk's unused slots may make an unwritten line readable.
	s.Put(8*100, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	s.Put(8*5000, []byte{9, 9, 9, 9, 9, 9, 9, 9})
	for _, line := range []uint64{0, 99, 101, 4999, 5001} {
		if s.Get(8*line) != nil {
			t.Errorf("unwritten line %d is non-nil", line)
		}
	}
	if s.Get(8 * 100)[0] != 1 || s.Get(8 * 5000)[0] != 9 {
		t.Error("lines sharing a chunk interfere")
	}
}

func TestStoreCrossChunkLines(t *testing.T) {
	s := NewStore(4)
	// chunkLines+1 first writes fill one chunk and start the next.
	for i := 0; i <= chunkLines; i++ {
		v := byte(i)
		s.Put(uint64(4*i*1000), []byte{v, v, v, v})
	}
	for i := 0; i <= chunkLines; i++ {
		if got := s.Get(uint64(4 * i * 1000)); got[0] != byte(i) || got[3] != byte(i) {
			t.Fatalf("line %d reads %v", i, got)
		}
	}
	if len(s.chunks) != 2 {
		t.Errorf("%d chunks for %d lines, want 2", len(s.chunks), chunkLines+1)
	}
	if s.Len() != chunkLines+1 {
		t.Errorf("Len = %d, want %d", s.Len(), chunkLines+1)
	}
}

// TestStoreGetViewOutlivesGrowth checks that a Get view stays the line's
// storage while the store grows: a slab that grew by reallocation would
// leave the view reading an orphaned copy.
func TestStoreGetViewOutlivesGrowth(t *testing.T) {
	const lineBytes = 16
	s := NewStore(lineBytes)
	want := make([]byte, lineBytes)
	for i := range want {
		want[i] = byte(i + 1)
	}
	s.Put(0, want)
	view := s.Get(0)
	line := make([]byte, lineBytes)
	for i := 1; i <= 10000; i++ {
		line[0] = byte(i)
		s.Put(uint64(i*lineBytes), line)
	}
	if &s.Get(0)[0] != &view[0] {
		t.Fatal("the line moved: an earlier Get view no longer aliases it")
	}
	for i := range want {
		if view[i] != want[i] {
			t.Fatalf("view reads %v, want %v", view, want)
		}
	}
}

// TestStoreMemoryFollowsLinesWritten writes lines 1 MiB apart, each alone
// in any page-sized span: the store must allocate about one line per line
// written, not a page.
func TestStoreMemoryFollowsLinesWritten(t *testing.T) {
	const lineBytes, n = 256, 1000
	line := make([]byte, lineBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewStore(lineBytes)
	for i := 0; i < n; i++ {
		s.Put(uint64(i)<<20, line)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*n*lineBytes); got > limit {
		t.Errorf("%d scattered lines allocated %d B, want at most %d", n, got, limit)
	}
	if s.Len() != n {
		t.Errorf("Len = %d, want %d", s.Len(), n)
	}
}

func TestStorePutWrongSizePanics(t *testing.T) {
	s := NewStore(8)
	defer func() {
		if recover() == nil {
			t.Error("Put with wrong size did not panic")
		}
	}()
	s.Put(0, []byte{1})
}

package trace

import (
	"bytes"
	"testing"
)

// FuzzTraceReader: trace files are external input, so for arbitrary bytes
// NewReader either refuses them or returns a reader that drains without
// panicking. The reader returns one access per whole 13-byte record after
// the header line, Records() counts them, and Err() is nil exactly when
// those bytes hold no partial record.
func FuzzTraceReader(f *testing.F) {
	var full bytes.Buffer
	w := NewWriter(&full, "mcf_m", 2)
	w.SetValueClass("int")
	for _, a := range []Access{{Gap: 3, Addr: 0x40}, {Write: true, Addr: 1 << 40}, {Gap: 1 << 31, Addr: 0x80}} {
		if err := w.Write(a); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	var empty bytes.Buffer
	if err := NewWriter(&empty, "lbm_m", 0).Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(full.Bytes())                                                                // Writer round trip
	f.Add(empty.Bytes())                                                               // empty trace
	f.Add(full.Bytes()[:full.Len()-5])                                                 // last record cut short
	f.Add(bytes.Replace(full.Bytes(), []byte(`"fpb-trace"`), []byte(`"fpb-trac"`), 1)) // bad magic
	f.Add(bytes.TrimSuffix(empty.Bytes(), []byte("\n")))                               // header with no newline

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		body := len(data) - (bytes.IndexByte(data, '\n') + 1)
		whole := uint64(body / 13)
		var n uint64
		for {
			if _, ok := r.Next(); !ok {
				break
			}
			n++
			if n > whole {
				t.Fatalf("reader returned more than the %d whole records in %d bytes", whole, body)
			}
		}
		if _, ok := r.Next(); ok {
			t.Fatal("drained reader returned another access")
		}
		if n != whole {
			t.Errorf("reader returned %d accesses from %d bytes of records, want %d", n, body, whole)
		}
		if r.Records() != n {
			t.Errorf("Records() = %d after %d accesses", r.Records(), n)
		}
		if partial := body%13 != 0; (r.Err() != nil) != partial {
			t.Errorf("Err() = %v with %d bytes of records (partial record: %v)", r.Err(), body, partial)
		}
	})
}

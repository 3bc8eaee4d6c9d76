package obs

import (
	"bytes"
	"sync"
	"testing"
)

// TestCounterConcurrent is the data-race guard behind sharing one registry
// between a daemon's worker pool and its HTTP handlers: counters are
// hammered from many goroutines while snapshots race them. Under `go test
// -race` this fails loudly if Counter ever regresses to a plain increment;
// without -race it still proves no increments are lost.
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammered")
	const workers, per = 16, 50_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	// Snapshot and JSON-dump concurrently with the increments: the reads
	// must be race-free even mid-hammer.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			r.Snapshot()
			var buf bytes.Buffer
			_ = EncodeSeries(&buf, r.Values())
			_, _ = r.Value("hammered")
		}
	}()
	wg.Wait()
	<-done
	if got := c.Value(); got != workers*per {
		t.Fatalf("lost increments: %d, want %d", got, workers*per)
	}
}

// TestRegistryConcurrentRegistration races registration of distinct and
// identical names from many goroutines: same-name registrations must
// converge on one counter.
func TestRegistryConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	counters := make([]*Counter, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			counters[w] = r.Counter("shared")
			r.Counter("own." + string(rune('a'+w))).Inc()
			r.Gauge("g."+string(rune('a'+w)), func() float64 { return 1 })
			r.Histogram("h.shared", []float64{1, 2}).Observe(1)
		}(w)
	}
	wg.Wait()
	for _, c := range counters[1:] {
		if c != counters[0] {
			t.Fatal("same-name registration returned different counters")
		}
	}
	if r.Len() != 1+8+8+1 {
		t.Fatalf("len = %d, want 18", r.Len())
	}
	if r.Histogram("h.shared", nil).Count() != 8 {
		t.Fatal("histogram re-registration did not converge")
	}
}

func TestNilCounterSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter leaked state")
	}
}

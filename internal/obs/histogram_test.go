package obs

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogramBuckets([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 2, 5, 10, 50, 99, 100, 1000} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	if want := []uint64{2, 3, 3, 1}; !reflect.DeepEqual(snap.Counts, want) {
		t.Fatalf("counts = %v, want %v", snap.Counts, want)
	}
	if snap.Count != 9 {
		t.Fatalf("count = %d, want 9", snap.Count)
	}
	if snap.Sum != 0.5+1+2+5+10+50+99+100+1000 {
		t.Fatalf("sum = %v", snap.Sum)
	}
	if got := h.Quantile(0.5); got != 10 {
		t.Errorf("p50 = %v, want 10 (bucket upper bound)", got)
	}
	if got := h.Quantile(0.99); got != 100 {
		t.Errorf("p99 = %v, want 100 (largest finite bound for +Inf bucket)", got)
	}
	if got := h.Quantile(0.1); got != 1 {
		t.Errorf("p10 = %v, want 1", got)
	}
}

func TestHistogramDeterministicSnapshots(t *testing.T) {
	// Same observations in different orders → identical snapshots.
	a := NewHistogramBuckets(LatencyBucketsMs)
	b := NewHistogramBuckets(LatencyBucketsMs)
	vals := []float64{0.1, 3, 3, 47, 999, 59999, 1e6}
	for _, v := range vals {
		a.Observe(v)
	}
	for i := len(vals) - 1; i >= 0; i-- {
		b.Observe(vals[i])
	}
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Fatalf("order-dependent snapshots:\n%+v\n%+v", a.Snapshot(), b.Snapshot())
	}
}

func TestHistogramNilAndEmpty(t *testing.T) {
	var h *Histogram
	h.Observe(5) // must not panic
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram leaked state")
	}
	e := NewHistogramBuckets([]float64{1, 2})
	if e.Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds did not panic")
		}
	}()
	NewHistogramBuckets([]float64{1, 1})
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 10, 4)
	if want := []float64{1, 10, 100, 1000}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ExpBuckets = %v, want %v", got, want)
	}
	if ExpBuckets(0, 2, 3) != nil || ExpBuckets(1, 1, 3) != nil || ExpBuckets(1, 2, 0) != nil {
		t.Fatal("invalid ExpBuckets inputs should return nil")
	}
}

// TestHistogramConcurrent hammers Observe from many goroutines; run under
// -race this is the histogram's thread-safety proof, and the final count
// and sum must be exact regardless.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogramBuckets([]float64{10, 100, 1000})
	const workers, per = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i % 2000))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	var wantSum float64
	for i := 0; i < per; i++ {
		wantSum += float64(i % 2000)
	}
	wantSum *= workers
	if h.Sum() != wantSum {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

// TestHistogramObserveMatchesLinearScan: Observe's binary search picks the
// same bucket as a linear scan for the first bound >= v, on random
// ascending layouts and on values that sit exactly on a bound, between
// bounds, below the first, above the last, and at ±Inf.
func TestHistogramObserveMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		bounds := make([]float64, 1+rng.Intn(40))
		v := rng.Float64()*10 - 5
		for i := range bounds {
			v += 0.001 + rng.Float64()*3
			bounds[i] = v
		}
		vals := []float64{math.Inf(1), math.Inf(-1), bounds[0] - 1, bounds[len(bounds)-1] + 1}
		for i := 0; i < 30; i++ {
			b := bounds[rng.Intn(len(bounds))]
			vals = append(vals, b, b+rng.Float64()*2-1)
		}
		h := NewHistogramBuckets(bounds)
		want := make([]uint64, len(bounds)+1)
		for _, v := range vals {
			h.Observe(v)
			i := 0
			for i < len(bounds) && v > bounds[i] {
				i++
			}
			want[i]++
		}
		if got := h.Snapshot().Counts; !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: bounds %v: counts %v, want %v", trial, bounds, got, want)
		}
	}
}

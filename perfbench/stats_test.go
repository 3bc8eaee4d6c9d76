package main

import "testing"

func TestMinSamples(t *testing.T) {
	for _, c := range []struct {
		q    float64
		want int
	}{{0.5, 1}, {0.25, 1}, {0.9, 100}, {0.99, 1000}, {0.999, 10000}} {
		if got := minSamples(c.q); got != c.want {
			t.Errorf("minSamples(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestPercentileWithholdsThinTails(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := percentile(xs, 0.99); ok {
		t.Fatal("p99 of 999 samples must be withheld")
	}
	if v, ok := percentile(xs, 0.5); !ok || v != 500 {
		t.Fatalf("p50 of 1..999 = %v, %v; want 500, true", v, ok)
	}
	xs = append(xs, 1000)
	v, ok := percentile(xs, 0.99)
	if !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("p50 of no samples must be withheld")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
}

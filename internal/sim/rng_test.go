package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at draw %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := NewRNG(seed)
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGIntnUniformish(t *testing.T) {
	r := NewRNG(99)
	const buckets, draws = 10, 100000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(draws) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Errorf("bucket %d has %d draws, want ~%g", i, c, want)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(3)
	out := make([]int, 32)
	r.Perm(out)
	seen := make(map[int]bool)
	for _, v := range out {
		if v < 0 || v >= len(out) || seen[v] {
			t.Fatalf("not a permutation: %v", out)
		}
		seen[v] = true
	}
}

// TestRNGInvPermInvertsPerm: from the same state, InvPerm returns the
// inverse of Perm's permutation and leaves the stream where Perm does.
func TestRNGInvPermInvertsPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 4096} {
		a, b := NewRNG(uint64(n)+5), NewRNG(uint64(n)+5)
		out := make([]int, n)
		a.Perm(out)
		pos := make([]int32, n)
		b.InvPerm(pos)
		for i, k := range out {
			if int(pos[k]) != i {
				t.Fatalf("n=%d: pos[out[%d]] = %d, want %d", n, i, pos[k], i)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Errorf("n=%d: InvPerm drew differently from Perm", n)
		}
	}
}

func TestRNGDeriveIndependent(t *testing.T) {
	a := NewRNG(42).Derive(1)
	b := NewRNG(42).Derive(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("derived streams with different labels overlap: %d/100", same)
	}
}

func TestRNGBernoulliExtremes(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

package sim

import "math/bits"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded via SplitMix64). Every stochastic component of the
// simulator draws from its own RNG stream derived from the run seed, so
// results are reproducible and independent of event interleaving.
type RNG struct {
	s [4]uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
func splitMix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed resets the generator in place to the state NewRNG(seed) would
// produce, without allocating. Hot paths that need a fresh content-keyed
// stream per operation (e.g. per-write iteration draws) reuse one RNG this
// way instead of constructing one per call.
func (r *RNG) Reseed(seed uint64) {
	st := seed
	for i := range r.s {
		r.s[i] = splitMix64(&st)
	}
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9E3779B97F4A7C15
	}
}

// Derive returns a new independent stream keyed by label. Components use
// this to split one run seed into per-component streams.
func (r *RNG) Derive(label uint64) *RNG {
	return NewRNG(r.Uint64() ^ (label * 0xD1B54A32D192ED03))
}

// State snapshots the generator's internal state for checkpointing.
func (r *RNG) State() [4]uint64 { return r.s }

// SetState restores a state captured by State. The all-zero state is not a
// valid xoshiro256** state and is rejected with the same fallback Reseed
// applies, so a corrupt checkpoint cannot wedge the stream.
func (r *RNG) SetState(s [4]uint64) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		s[0] = 0x9E3779B97F4A7C15
	}
	r.s = s
}

// Uint64 returns the next 64 uniformly distributed bits. The xoshiro256**
// step is written over locals to fit the inlining budget, so Intn, Float64,
// Bernoulli, Normal and Perm draw without a call per output.
func (r *RNG) Uint64() uint64 {
	s0, s1 := r.s[0], r.s[1]
	s2, s3 := r.s[2]^s0, r.s[3]^s1
	r.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Geometric returns a sample from a geometric distribution with success
// probability p: the number of trials up to and including the first
// success (support {1, 2, ...}). p must be in (0, 1].
func (r *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 1
	}
	if p <= 0 {
		panic("sim: Geometric with non-positive p")
	}
	n := 1
	for !r.Bernoulli(p) {
		n++
		if n > 1<<20 { // safety bound; unreachable for sane p
			break
		}
	}
	return n
}

// Normal returns a sample from N(mean, stddev) via the Irwin–Hall
// approximation (sum of 12 uniforms), which is plenty for the ±4σ range the
// simulator uses and avoids math.Log in the hot path.
func (r *RNG) Normal(mean, stddev float64) float64 {
	s := -6.0
	for i := 0; i < 12; i++ {
		s += r.Float64()
	}
	return mean + stddev*s
}

// Perm fills out with a uniform random permutation of [0, len(out)).
func (r *RNG) Perm(out []int) {
	for i := range out {
		out[i] = i
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
}

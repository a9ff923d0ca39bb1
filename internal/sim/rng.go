// Package sim provides the deterministic simulation substrate shared by all
// experiments: a reproducible random-number generator and a synchronous
// two-phase clock kernel.
//
// Everything in the simulator is deterministic given a seed; no global RNG
// state is used, so concurrent experiments never perturb each other.
package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator based on
// SplitMix64 (Steele, Lea & Flood, OOPSLA 2014). It is not cryptographically
// secure; it exists so simulations are exactly reproducible from a seed.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators constructed
// with the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Fork derives an independent generator from r's current state and the given
// stream identifier. Forking with distinct ids yields decorrelated streams,
// which lets each traffic source own a private generator.
func (r *RNG) Fork(id uint64) *RNG {
	// Mix the id through one SplitMix64 round so that consecutive ids do not
	// produce correlated seeds.
	return NewRNG(r.Uint64() ^ mix64(id+gamma))
}

// gamma is SplitMix64's Weyl increment: the state is a plain counter stepped
// by gamma, and every output is the stateless mix64 of that counter.
const gamma = 0x9e3779b97f4a7c15

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	return mix64(r.state)
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with non-positive n")
	}
	// Lemire's multiply-shift rejection method would remove modulo bias
	// entirely; for the n values used here (<= thousands) the bias of the
	// simple reduction is far below measurement noise, but we reject anyway
	// to keep the generator exact.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NextHit consumes draws exactly as limit successive Bernoulli(p) calls
// would, stopping after the first hit. It returns the number of misses
// before the hit and leaves the generator on the hit draw; with no hit in
// limit draws it returns (limit, false) with all of them consumed. Like
// Bernoulli, p <= 0 and p >= 1 consume nothing, and a NaN p never hits but
// consumes every draw.
//
// The scan is exact, not approximate: Float64 is float64(v)/2^53 for the
// 53-bit integer v = Uint64()>>11, and both that quotient and p*2^53 are
// exact in float64, so Float64() < p holds exactly when v < ceil(p*2^53).
// The hit test is therefore one integer compare against a threshold
// computed once per call. Because the state is a counter, the four draws
// of a block have no data dependence and their multiplies pipeline.
func (r *RNG) NextHit(p float64, limit int64) (gap int64, hit bool) {
	switch {
	case limit <= 0:
		return 0, false
	case p <= 0:
		return limit, false
	case p >= 1:
		return 0, true
	case math.IsNaN(p):
		r.Skip(limit)
		return limit, false
	}
	t := uint64(math.Ceil(p * (1 << 53)))
	s, left := r.state, limit
	for ; left >= 4; left -= 4 {
		s1 := s + gamma
		s2 := s1 + gamma
		s3 := s2 + gamma
		s4 := s3 + gamma
		if mix64(s1)>>11 < t || mix64(s2)>>11 < t || mix64(s3)>>11 < t || mix64(s4)>>11 < t {
			break // the tail re-walks this block to locate the hit
		}
		s = s4
	}
	for ; left > 0; left-- {
		s += gamma
		if mix64(s)>>11 < t {
			r.state = s
			return limit - left, true
		}
	}
	r.state = s
	return limit, false
}

// Pareto draws from a Pareto distribution with shape alpha and minimum b
// (both > 0). Used by the self-similar traffic source (alpha = 1.4, b = 8 in
// the paper's configuration).
func (r *RNG) Pareto(alpha, b float64) float64 {
	if alpha <= 0 || b <= 0 {
		panic("sim: Pareto requires positive shape and scale")
	}
	u := r.Float64()
	// Invert the CDF: F(x) = 1 - (b/x)^alpha. Guard u == 0 which would give
	// +Inf through the 1/(1-u) path.
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return b / math.Pow(1-u, 1/alpha)
}

// Exp draws from an exponential distribution with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// Perm returns a random permutation of [0, n) using Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

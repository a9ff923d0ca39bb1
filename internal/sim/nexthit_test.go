package sim

import (
	"math"
	"testing"
)

// refNextHit is NextHit's specification: limit successive Bernoulli(p)
// calls, stopping after the first hit.
func refNextHit(r *RNG, p float64, limit int64) (int64, bool) {
	for i := int64(0); i < limit; i++ {
		if r.Bernoulli(p) {
			return i, true
		}
	}
	if limit < 0 {
		limit = 0
	}
	return limit, false
}

// checkNextHit advances got with NextHit and ref with the reference, both
// standing at the same state, and fails on any disagreement in gap, hit, or
// the state left behind.
func checkNextHit(t *testing.T, got, ref *RNG, p float64, limit int64) (gap int64, hit bool) {
	t.Helper()
	start := got.state
	gap, hit = got.NextHit(p, limit)
	wantGap, wantHit := refNextHit(ref, p, limit)
	if gap != wantGap || hit != wantHit || got.state != ref.state {
		t.Fatalf("state %#x p=%v limit=%d: NextHit = (%d, %v) state %#x, Bernoulli loop = (%d, %v) state %#x",
			start, p, limit, gap, hit, got.state, wantGap, wantHit, ref.state)
	}
	return gap, hit
}

// sameNextHit is checkNextHit on a fresh pair of generators at state.
func sameNextHit(t *testing.T, state uint64, p float64, limit int64) (gap int64, hit bool) {
	t.Helper()
	return checkNextHit(t, NewRNG(state), NewRNG(state), p, limit)
}

func TestNextHitMatchesBernoulliLoop(t *testing.T) {
	ps := []float64{0, 5e-324, 1e-9, 0.001, 0.25, 1 - 1.0/(1<<53), 1, 1.5, -1, math.NaN()}
	limits := []int64{-1, 0, 1, 3, 4, 5, 1000}
	for _, p := range ps {
		for _, limit := range limits {
			for seed := uint64(0); seed < 50; seed++ {
				sameNextHit(t, mix64(seed), p, limit)
			}
		}
	}
}

// TestNextHitEveryBlockPosition drives the first hit through every offset
// of the 4-draw unrolled block, in the first, a middle, and the partial
// last block, and chains calls so each scan starts where the last stopped.
func TestNextHitEveryBlockPosition(t *testing.T) {
	const limit = 11 // two full blocks and a 3-draw scalar tail
	seen := make([]bool, limit+1)
	for seed := uint64(0); seed < 2000; seed++ {
		gap, hit := sameNextHit(t, mix64(seed), 0.125, limit)
		if !hit {
			gap = limit
		}
		seen[gap] = true
	}
	for pos, ok := range seen {
		if !ok {
			t.Errorf("no seed put the first hit at position %d (limit = no hit)", pos)
		}
	}

	got, ref := NewRNG(7), NewRNG(7)
	for i := 0; i < 5000; i++ {
		checkNextHit(t, got, ref, 0.03, int64(i%23))
	}
}

// unmix64 inverts mix64, so a test can place any chosen 64-bit output at
// the generator's next draw.
func unmix64(z uint64) uint64 {
	inverse := func(m uint64) uint64 { // Newton iteration mod 2^64, m odd
		inv := m
		for i := 0; i < 6; i++ {
			inv *= 2 - m*inv
		}
		return inv
	}
	unshift := func(z uint64, k uint) uint64 { // inverts z ^= z >> k
		for s := k; s < 64; s *= 2 {
			z ^= z >> s
		}
		return z
	}
	z = unshift(z, 31) * inverse(0x94d049bb133111eb)
	z = unshift(z, 27) * inverse(0xbf58476d1ce4e5b9)
	return unshift(z, 30)
}

// TestNextHitThresholdBoundary checks the exactness argument where it could
// fail: at the two 53-bit draws either side of the integer threshold
// t = ceil(p*2^53), the float compare inside Bernoulli and the integer
// compare inside NextHit must agree (v = t-1 hits, v = t misses).
func TestNextHitThresholdBoundary(t *testing.T) {
	for _, z := range []uint64{0, 1, 0xdeadbeef, 1<<64 - 1} {
		if got := mix64(unmix64(z)); got != z {
			t.Fatalf("mix64(unmix64(%#x)) = %#x", z, got)
		}
	}
	ps := []float64{5e-324, 1e-300, 1e-9, 0.001, 0.1, 0.25, 1.0 / 3, 0.5, 0.75,
		1 - 1.0/(1<<53), math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), 3.0 / (1 << 53), 2.5 / (1 << 53)}
	r := NewRNG(99)
	for i := 0; i < 200; i++ {
		ps = append(ps, r.Float64(), r.Float64()*1e-6)
	}
	for _, p := range ps {
		if p <= 0 {
			continue
		}
		th := uint64(math.Ceil(p * (1 << 53)))
		for _, v := range []uint64{th - 1, th} {
			if v >= 1<<53 {
				continue
			}
			for _, low := range []uint64{0, 0x7ff} {
				state := unmix64(v<<11|low) - gamma // next draw yields exactly v
				want := v < th
				if got := NewRNG(state).Bernoulli(p); got != want {
					t.Fatalf("p=%v v=%d (t=%d): Bernoulli = %v, want %v", p, v, th, got, want)
				}
				gap, hit := sameNextHit(t, state, p, 1)
				if hit != want || (hit && gap != 0) {
					t.Fatalf("p=%v v=%d (t=%d): NextHit = (%d, %v), want hit=%v", p, v, th, gap, hit, want)
				}
			}
		}
	}
}

package sim

import (
	"math"
	"testing"
)

func TestGammaInverse(t *testing.T) {
	g, inv := uint64(gamma), uint64(gammaInv)
	if g*inv != 1 {
		t.Fatalf("gamma*gammaInv = %#x mod 2^64, want 1", g*inv)
	}
}

func TestSkipMatchesDraws(t *testing.T) {
	for _, n := range []int64{0, 1, 31, 32, 1000} {
		got, ref := NewRNG(5), NewRNG(5)
		got.Skip(n)
		for i := int64(0); i < n; i++ {
			ref.Uint64()
		}
		if got.state != ref.state {
			t.Fatalf("Skip(%d) state %#x, %d draws %#x", n, got.state, n, ref.state)
		}
	}
}

// blockHits is ScanHits's specification: whether block k of the draws
// after state holds a Bernoulli(rate) hit.
func blockHits(state uint64, rate float64, draws, k int64) bool {
	r := NewRNG(state)
	r.Skip(k * HitBlock)
	for i := k * HitBlock; i < min((k+1)*HitBlock, draws); i++ {
		if r.Bernoulli(rate) {
			return true
		}
	}
	return false
}

// TestHitMapMatchesBlocks checks every bit of maps over windows ending
// inside, on and past a word, and Run from every position of the window and
// a few past it against a block-by-block walk of the bits.
func TestHitMapMatchesBlocks(t *testing.T) {
	for _, rate := range []float64{1e-4, 0.002, 0.03, 0.5, 1 - 1.0/(1<<53)} {
		for _, draws := range []int64{0, 1, 31, 33, 64*HitBlock - 1, 64 * HitBlock, 3*64*HitBlock + 17} {
			for seed := uint64(0); seed < 3; seed++ {
				state := mix64(seed)
				src := NewRNG(state)
				h := src.ScanHits(rate, draws, make([]uint64, HitMapWords(draws)))
				if src.state != state {
					t.Fatalf("ScanHits moved the generator")
				}
				blocks := (draws + HitBlock - 1) / HitBlock
				set := make([]bool, blocks)
				for k := range set {
					set[k] = blockHits(state, rate, draws, int64(k))
					if got := h.bits[k/64]>>(k%64)&1 != 0; got != set[k] {
						t.Fatalf("rate %v draws %d seed %d: block %d bit %v, want %v", rate, draws, seed, k, got, set[k])
					}
				}
				for d := int64(0); d < draws+2*HitBlock; d++ {
					r := NewRNG(state)
					r.Skip(d)
					n, hits := h.Run(r)
					var want int64
					if d < draws {
						k := d / HitBlock
						end := k + 1
						for end < blocks && set[end] == set[k] {
							end++
						}
						want = min(end*HitBlock, draws) - d
						if hits != set[k] {
							t.Fatalf("rate %v draws %d: Run at %d hits %v, want %v", rate, draws, d, hits, set[k])
						}
					}
					if n != want {
						t.Fatalf("rate %v draws %d seed %d: Run at %d = %d draws, want %d", rate, draws, seed, d, n, want)
					}
				}
			}
		}
	}
	// A generator behind the origin is outside the window too.
	r := NewRNG(100)
	h := NewRNG(101).ScanHits(0.5, 1000, make([]uint64, HitMapWords(1000)))
	if n, _ := h.Run(r); n != 0 {
		t.Fatalf("Run before the origin = %d draws, want 0", n)
	}
}

func TestScanHitsRejectsRate(t *testing.T) {
	for _, rate := range []float64{0, -1, 1, 2, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ScanHits(%v) did not panic", rate)
				}
			}()
			NewRNG(1).ScanHits(rate, 10, make([]uint64, 1))
		}()
	}
}

package sim

import (
	"math"
	"math/bits"
)

// HitBlock is the number of consecutive draws one HitMap bit stands for.
const HitBlock = 32

// gammaInv is gamma's multiplicative inverse mod 2^64: multiplying a state
// difference by it counts the draws between the two states.
const gammaInv = 0xf1de83e19937733d

// HitMap is a skip map over a window of one generator's stream: bit k is set
// when draws k*HitBlock+1 .. (k+1)*HitBlock of the window (counted from the
// state it was scanned at) hold a draw that hits at the map's rate, i.e.
// mix64>>11 < ceil(rate*2^53). A hit at any lower probability is a hit at the
// rate, so a Bernoulli source at most that rate can jump an unset block with
// Skip and leave the generator exactly where drawing the block would.
//
// A HitMap is read-only once scanned; any number of generators on the
// stream it was scanned from, in any goroutines, may consult it.
type HitMap struct {
	rate   float64
	origin uint64 // state before the window's first draw
	draws  uint64
	bits   []uint64
}

// HitMapWords returns how many words of storage ScanHits needs for a window
// of draws draws.
func HitMapWords(draws int64) int {
	return int((draws + 64*HitBlock - 1) / (64 * HitBlock))
}

// ScanHits returns the HitMap of r's next draws draws at probability rate, in
// (0, 1), storing its bits in bits: HitMapWords(draws) zeroed words. r does not
// move. The scan stops evaluating a block at its first hit.
func (r *RNG) ScanHits(rate float64, draws int64, bits []uint64) HitMap {
	if !(rate > 0 && rate < 1) {
		panic("sim: ScanHits rate must be in (0, 1)")
	}
	draws = max(draws, 0)
	t := uint64(math.Ceil(rate * (1 << 53)))
	s := r.state
	for k := int64(0); k*HitBlock < draws; k++ {
		n := min(draws-k*HitBlock, HitBlock)
		if anyHit(s, n, t) {
			bits[k/64] |= 1 << (k % 64)
		}
		s += gamma * uint64(n)
	}
	return HitMap{rate: rate, origin: r.state, draws: uint64(draws), bits: bits[:HitMapWords(draws)]}
}

// anyHit reports whether one of the n draws after state s is below t,
// unrolled four draws wide as NextHit is.
func anyHit(s uint64, n int64, t uint64) bool {
	for ; n >= 4; n -= 4 {
		s1 := s + gamma
		s2 := s1 + gamma
		s3 := s2 + gamma
		s4 := s3 + gamma
		if mix64(s1)>>11 < t || mix64(s2)>>11 < t || mix64(s3)>>11 < t || mix64(s4)>>11 < t {
			return true
		}
		s = s4
	}
	for ; n > 0; n-- {
		s += gamma
		if mix64(s)>>11 < t {
			return true
		}
	}
	return false
}

// Rate returns the probability the map was scanned at.
func (h *HitMap) Rate() float64 { return h.rate }

// Run locates r's next draw in the map's window and returns how many draws
// from it on lie in blocks of its block's kind: blocks holding a hit (hits
// true) or blocks holding none. The run ends at the first block of the other
// kind or at the window's end; n is 0 when r's next draw lies outside the
// window.
func (h *HitMap) Run(r *RNG) (n int64, hits bool) {
	d := (r.state - h.origin) * gammaInv // draws r has taken since the origin
	if d >= h.draws {
		return 0, false
	}
	k := d / HitBlock
	w, o := k/64, k%64
	hits = h.bits[w]>>o&1 != 0
	var flip uint64 // makes every block of r's kind read as a zero bit
	if hits {
		flip = ^uint64(0)
	}
	end := uint64(len(h.bits)) * 64 // first block of the other kind
	if x := (h.bits[w] ^ flip) >> o; x != 0 {
		end = k + uint64(bits.TrailingZeros64(x))
	} else {
		for w++; w < uint64(len(h.bits)); w++ {
			if x := h.bits[w] ^ flip; x != 0 {
				end = w*64 + uint64(bits.TrailingZeros64(x))
				break
			}
		}
	}
	return int64(min(end*HitBlock, h.draws) - d), hits
}

// Skip advances r past n draws at once, as n discarded Uint64 calls would.
func (r *RNG) Skip(n int64) { r.state += gamma * uint64(n) }

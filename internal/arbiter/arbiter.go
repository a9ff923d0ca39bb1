// Package arbiter implements the output arbiters used by every router in
// the study. All four router microarchitectures arbitrate identically; they
// differ only in *when* the arbitration result is used (same cycle,
// speculative pre-schedule, or in parallel with XOR-coded traversal), which
// is exactly the comparison the paper sets up.
package arbiter

import "math/bits"

// Arbiter selects one requester from a bitmask of requests. Implementations
// must be work-conserving (grant whenever requests != 0) and produce at most
// one grant per invocation.
type Arbiter interface {
	// Grant picks a winner among the set bits of requests and returns its
	// index. ok is false iff requests == 0. A granted request updates the
	// arbiter's internal priority state.
	Grant(requests uint32) (winner int, ok bool)
	// Peek is Grant without the state update.
	Peek(requests uint32) (winner int, ok bool)
	// Width returns the number of request lines.
	Width() int
}

// RoundRobin is a rotating-priority arbiter: after granting input g, input
// g+1 (mod n) has the highest priority. This is the arbiter the paper's
// routers use; its rotation is what makes NoX decode order fair (§2.2:
// "Packets decoded by this means are received in the order which they won
// arbitration, maintaining any fairness or prioritization mechanisms").
type RoundRobin struct {
	// Both fit a byte (width is at most 32): routers embed one arbiter per
	// output by value, so the pair costs two bytes of the port's record.
	n    uint8
	next uint8
}

// NewRoundRobin returns an arbiter over n request lines with initial
// priority at line 0.
func NewRoundRobin(n int) *RoundRobin {
	rr := &RoundRobin{}
	rr.Init(n)
	return rr
}

// Init initializes a zero RoundRobin in place over n request lines — the
// slab-construction form letting a router carve its per-output arbiters from
// one allocation.
func (a *RoundRobin) Init(n int) {
	if n <= 0 || n > 32 {
		panic("arbiter: width must be in [1,32]")
	}
	*a = RoundRobin{n: uint8(n)}
}

// Width returns the number of request lines.
func (a *RoundRobin) Width() int { return int(a.n) }

// Peek returns the requester that would win without rotating the priority:
// the lowest set bit at or above the priority pointer, wrapping to the
// lowest set bit overall. Two trailing-zero counts replace the rotate-and-
// scan loop on what is the single hottest decision in every router.
func (a *RoundRobin) Peek(requests uint32) (int, bool) {
	if requests == 0 {
		return 0, false
	}
	if hi := requests >> a.next; hi != 0 {
		return int(a.next) + bits.TrailingZeros32(hi), true
	}
	return bits.TrailingZeros32(requests), true
}

// Grant returns the highest-priority requester and rotates priority past it.
func (a *RoundRobin) Grant(requests uint32) (int, bool) {
	w, ok := a.Peek(requests)
	if ok {
		a.next = uint8(w + 1)
		if a.next == a.n {
			a.next = 0
		}
	}
	return w, ok
}

// Matrix is a least-recently-served matrix arbiter, provided as an ablation
// alternative to RoundRobin. state[i][j] == true means input i beats input j.
type Matrix struct {
	n    int
	over [][]bool
}

// NewMatrix returns a matrix arbiter over n lines; initially lower indices
// have priority.
func NewMatrix(n int) *Matrix {
	if n <= 0 || n > 32 {
		panic("arbiter: width must be in [1,32]")
	}
	m := &Matrix{n: n, over: make([][]bool, n)}
	for i := range m.over {
		m.over[i] = make([]bool, n)
		for j := i + 1; j < n; j++ {
			m.over[i][j] = true
		}
	}
	return m
}

// Width returns the number of request lines.
func (m *Matrix) Width() int { return m.n }

// Peek returns the requester that beats all other requesters.
func (m *Matrix) Peek(requests uint32) (int, bool) {
	if requests == 0 {
		return 0, false
	}
	for i := 0; i < m.n; i++ {
		if requests&(1<<i) == 0 {
			continue
		}
		wins := true
		for j := 0; j < m.n; j++ {
			if j == i || requests&(1<<j) == 0 {
				continue
			}
			if !m.over[i][j] {
				wins = false
				break
			}
		}
		if wins {
			return i, true
		}
	}
	// The matrix invariant (antisymmetry) guarantees a unique winner among
	// any non-empty request set, so this is unreachable.
	panic("arbiter: matrix priority relation is inconsistent")
}

// Grant returns the winner and demotes it below every other input.
func (m *Matrix) Grant(requests uint32) (int, bool) {
	w, ok := m.Peek(requests)
	if !ok {
		return 0, false
	}
	for j := 0; j < m.n; j++ {
		if j != w {
			m.over[w][j] = false
			m.over[j][w] = true
		}
	}
	return w, ok
}

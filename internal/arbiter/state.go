package arbiter

import (
	"errors"
	"fmt"
)

// ErrUnsupported reports an arbiter implementation the snapshot layer cannot
// capture. The two built-in arbiters round-trip exactly; a custom Arbiter
// must either be avoided in checkpointed runs or be stateless.
var ErrUnsupported = errors.New("arbiter: unsupported arbiter type for state capture")

// State extracts an arbiter's priority state as a flat word vector:
// RoundRobin is its rotation pointer, Matrix is its priority relation packed
// row-major, 64 cells per word. Custom implementations return
// ErrUnsupported.
func State(a Arbiter) ([]uint64, error) {
	switch a := a.(type) {
	case *RoundRobin:
		return []uint64{uint64(a.next)}, nil
	case *Matrix:
		words := make([]uint64, (a.n*a.n+63)/64)
		for i := 0; i < a.n; i++ {
			for j := 0; j < a.n; j++ {
				if a.over[i][j] {
					cell := i*a.n + j
					words[cell>>6] |= 1 << (cell & 63)
				}
			}
		}
		return words, nil
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnsupported, a)
	}
}

// Restore overwrites an arbiter's priority state with a vector captured by
// State from an arbiter of the same type and width. Malformed vectors return
// an error rather than corrupting the arbiter.
func Restore(a Arbiter, state []uint64) error {
	switch a := a.(type) {
	case *RoundRobin:
		if len(state) != 1 || state[0] >= uint64(a.n) {
			return fmt.Errorf("arbiter: bad round-robin state %v for width %d", state, a.n)
		}
		a.next = uint8(state[0])
		return nil
	case *Matrix:
		if len(state) != (a.n*a.n+63)/64 {
			return fmt.Errorf("arbiter: bad matrix state length %d for width %d", len(state), a.n)
		}
		cell := func(i, j int) bool {
			c := i*a.n + j
			return state[c>>6]&(1<<(c&63)) != 0
		}
		// Reject relations that violate the matrix invariant (irreflexive,
		// antisymmetric) before touching the arbiter: an inconsistent relation
		// would make Peek's unique-winner guarantee panic later.
		for i := 0; i < a.n; i++ {
			if cell(i, i) {
				return fmt.Errorf("arbiter: matrix state is reflexive at %d", i)
			}
			for j := i + 1; j < a.n; j++ {
				if cell(i, j) == cell(j, i) {
					return fmt.Errorf("arbiter: matrix state is not antisymmetric at (%d,%d)", i, j)
				}
			}
		}
		for i := 0; i < a.n; i++ {
			for j := 0; j < a.n; j++ {
				a.over[i][j] = cell(i, j)
			}
		}
		return nil
	default:
		return fmt.Errorf("%w: %T", ErrUnsupported, a)
	}
}

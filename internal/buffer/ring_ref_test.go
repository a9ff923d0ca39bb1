package buffer

import (
	"math/rand"
	"testing"

	"repro/internal/noc"
)

// sliceFIFO is the pre-ring reference implementation: a plain slice with
// head-index compaction semantics reduced to their observable essence. The
// ring FIFO replaced it for hot-path speed; this model pins the behavior.
type sliceFIFO struct {
	slots []*noc.Flit
	depth int
}

func (s *sliceFIFO) Cap() int    { return s.depth }
func (s *sliceFIFO) Len() int    { return len(s.slots) }
func (s *sliceFIFO) Free() int   { return s.depth - len(s.slots) }
func (s *sliceFIFO) Empty() bool { return len(s.slots) == 0 }

func (s *sliceFIFO) Head() *noc.Flit {
	if len(s.slots) == 0 {
		return nil
	}
	return s.slots[0]
}

func (s *sliceFIFO) Push(f *noc.Flit) {
	if len(s.slots) == s.depth {
		panic("sliceFIFO overflow")
	}
	s.slots = append(s.slots, f)
}

func (s *sliceFIFO) Pop() *noc.Flit {
	f := s.slots[0]
	s.slots = s.slots[1:]
	return f
}

// TestRingMatchesSliceFIFO runs the ring FIFO and the slice reference
// op-for-op under randomized push/pop sequences at several depths (including
// non-power-of-two depths, where the ring is larger than the advertised
// capacity) and demands identical observable state after every operation:
// same Head identity, same Len/Free/Cap/Empty, same popped flits.
func TestRingMatchesSliceFIFO(t *testing.T) {
	for _, depth := range []int{1, 2, 3, 4, 5, 7, 8, 13} {
		rng := rand.New(rand.NewSource(int64(depth) * 977))
		ring := New(depth)
		ref := &sliceFIFO{depth: depth}
		var next uint64
		for op := 0; op < 4000; op++ {
			if ring.Len() != ref.Len() || ring.Free() != ref.Free() ||
				ring.Cap() != ref.Cap() || ring.Empty() != ref.Empty() {
				t.Fatalf("depth %d op %d: accounting diverged: ring len=%d free=%d, ref len=%d free=%d",
					depth, op, ring.Len(), ring.Free(), ref.Len(), ref.Free())
			}
			if ring.Head() != ref.Head() {
				t.Fatalf("depth %d op %d: Head diverged", depth, op)
			}
			// Bias toward pushes so the ring wraps repeatedly at every depth.
			if rng.Intn(5) < 3 {
				if ring.Free() == 0 {
					continue
				}
				f := flit(next)
				next++
				ring.Push(f)
				ref.Push(f)
			} else {
				if ring.Empty() {
					continue
				}
				got, want := ring.Pop(), ref.Pop()
				if got != want {
					t.Fatalf("depth %d op %d: Pop diverged: got pkt%d want pkt%d",
						depth, op, got.Packet.ID, want.Packet.ID)
				}
			}
		}
	}
}

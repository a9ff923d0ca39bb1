// Package buffer models the router input buffers: small single-read,
// single-write SRAM FIFOs (paper §2.4, Table 1: four 64-bit entries per
// input port, the minimum covering the round-trip credit loop). A FIFO is a
// header a router embeds by value in its per-port record, over a ring the
// router carves from a slab (Init's slots).
package buffer

import "repro/internal/noc"

// FIFO is a fixed-capacity flit queue backed by a power-of-two ring, so the
// hot Push/Pop/Head index arithmetic is a mask instead of a division. The
// advertised capacity stays exactly the requested depth — the credit
// protocol and overflow panics see the configured buffer size, not the
// rounded ring.
//
// A FIFO is embedded by value in a router's per-port record, so its header is
// kept to 40 bytes: the ring, then the two indices every access reads, then
// the configured depth. The ring mask is len(slots)-1 and is not stored.
type FIFO struct {
	slots []*noc.Flit
	head  int32
	count int32
	depth int32
}

// ringSize returns the power-of-two ring length backing a FIFO of the given
// depth.
func ringSize(depth int) int {
	n := 1
	for n < depth {
		n <<= 1
	}
	return n
}

// New returns an empty FIFO holding up to depth flits.
func New(depth int) *FIFO {
	f := &FIFO{}
	f.Init(depth, nil)
	return f
}

// Init initializes a zero FIFO in place. slots, when non-nil, becomes the
// backing ring — the slab-construction form letting a router carve every
// port's buffer from one allocation; it must be empty and exactly
// SlotsFor(depth) long. A nil slots allocates the ring.
func (f *FIFO) Init(depth int, slots []*noc.Flit) {
	n := SlotsFor(depth)
	if slots == nil {
		slots = make([]*noc.Flit, n)
	} else if len(slots) != n {
		panic("buffer: Init slots length must be SlotsFor(depth)")
	}
	*f = FIFO{slots: slots, depth: int32(depth)}
}

// SlotsFor returns the backing-slice length Init requires for a FIFO of the
// given depth.
func SlotsFor(depth int) int {
	if depth <= 0 || depth > 1<<30 {
		panic("buffer: FIFO depth must be in [1, 2^30]")
	}
	return ringSize(depth)
}

// Cap returns the FIFO capacity in flits.
func (f *FIFO) Cap() int { return int(f.depth) }

// Len returns the number of buffered flits.
func (f *FIFO) Len() int { return int(f.count) }

// Free returns the number of empty slots.
func (f *FIFO) Free() int { return int(f.depth - f.count) }

// Empty reports whether the FIFO holds no flits.
func (f *FIFO) Empty() bool { return f.count == 0 }

// Index returns the ring slot of the i-th buffered flit (0 = oldest), for an
// owner that keeps state per slot beside the ring in a slice as long as it;
// i = Len() names the slot the next Push fills. Slots are ring positions, so
// an index stays the flit's until it is popped.
func (f *FIFO) Index(i int) int { return (int(f.head) + i) & (len(f.slots) - 1) }

// Head returns the oldest flit without removing it, or nil when empty.
func (f *FIFO) Head() *noc.Flit {
	if f.count == 0 {
		return nil
	}
	return f.slots[f.head]
}

// At returns the i-th buffered flit in queue order (0 = oldest) without
// removing it. It panics when i is out of range. Snapshotting walks the
// queue with At and rebuilds it with Push, which re-canonicalizes the ring
// layout (head returns to 0) so a restored FIFO re-saves byte-identically.
func (f *FIFO) At(i int) *noc.Flit {
	if i < 0 || i >= int(f.count) {
		panic("buffer: At index out of range")
	}
	return f.slots[f.Index(i)]
}

// Push appends a flit and returns the ring slot it took (see Index). It
// panics on overflow: credit-based flow control must make overflow
// impossible, so an overflow is always a simulator bug.
func (f *FIFO) Push(fl *noc.Flit) int {
	if fl == nil {
		panic("buffer: Push of nil flit")
	}
	if f.count == f.depth {
		panic("buffer: FIFO overflow (credit protocol violated)")
	}
	i := f.Index(int(f.count))
	f.slots[i] = fl
	f.count++
	return i
}

// Pop removes and returns the oldest flit. It panics when empty.
func (f *FIFO) Pop() *noc.Flit {
	if f.count == 0 {
		panic("buffer: Pop from empty FIFO")
	}
	fl := f.slots[f.head]
	f.slots[f.head] = nil
	f.head = (f.head + 1) & int32(len(f.slots)-1)
	f.count--
	return fl
}

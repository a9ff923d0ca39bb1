package noc

import "fmt"

// This file implements the XOR wire algebra of the NoX coding scheme
// (paper §2.2): if inputs A, B, C collide the switch emits A^B^C; after one
// of them (say A) wins arbitration and stops driving, the next cycle emits
// B^C, and the receiver recovers A = (A^B^C) ^ (B^C). The simulator carries
// both the honest 64-bit XOR image and the constituent sets, and checks at
// every decode that the image matches the recovered flit's payload —
// a bit-exact, end-to-end verification of the coding protocol.

// Encode superimposes the given flits into one encoded wire flit. All inputs
// must be unencoded single-flit heads (the router aborts instead of encoding
// when a multi-flit packet is involved) or previously decoded originals; at
// least two flits are required.
func Encode(flits []*Flit) *Flit {
	return (*Arena)(nil).Encode(flits)
}

// Encode is the pooled form of the package-level Encode: the wire flit and
// its constituent-set slice come from the arena and return to it when the
// superposition dies at the downstream decode register.
func (a *Arena) Encode(flits []*Flit) *Flit {
	if len(flits) < 2 {
		panic("noc: Encode requires at least two flits")
	}
	var raw uint64
	parts := a.partsBuf(len(flits))
	for _, f := range flits {
		if f.Encoded {
			panic("noc: Encode of an already-encoded flit")
		}
		if f.MultiFlit() {
			panic("noc: Encode of a multi-flit packet (router must abort)")
		}
		raw ^= f.Raw
		parts = append(parts, f)
	}
	e := a.alloc()
	e.Raw, e.Encoded, e.Parts = raw, true, parts
	return e
}

// partsOf returns the constituent set of a wire flit: itself when unencoded,
// viewed through the caller's stack buffer so no allocation happens.
func partsOf(f *Flit, buf *[1]*Flit) []*Flit {
	if f.Encoded {
		return f.Parts
	}
	buf[0] = f
	return buf[:]
}

// containsID reports whether set holds a flit of the given owning packet.
// Chain members are single-flit packets, so packet ID is a sufficient key —
// and it must be the key rather than object identity: an input port
// re-presents a fresh decode copy of the same packet each cycle, and the
// stale copy absorbed into an earlier superposition cancels against the copy
// that eventually traversed.
func containsID(set []*Flit, id uint64) bool {
	for _, f := range set {
		if f.Packet.ID == id {
			return true
		}
	}
	return false
}

// allOwned reports whether every flit of set has an owning packet.
func allOwned(set []*Flit) bool {
	for _, f := range set {
		if f.Packet == nil {
			return false
		}
	}
	return true
}

// Decode XORs two contiguously received wire flits and returns the original
// flit their difference encodes (paper property: (A^B^C) ^ (B^C) = A). The
// constituent sets must differ by exactly one flit, and the XOR of the raw
// images must equal that flit's payload word; any violation indicates a
// protocol bug and is returned as an error. The sets are tiny (bounded by
// the router radix), so the symmetric difference is two membership scans —
// no map, no allocation.
//
// A constituent without an owning packet is a violation too, checked first
// because the scans key on packet ID: after an upstream drop a register can
// hold a part that was released and scrubbed, or recycled as an encoded
// flit, while the superposition was still in flight.
func Decode(reg, next *Flit) (*Flit, error) {
	var rbuf, nbuf [1]*Flit
	rp := partsOf(reg, &rbuf)
	np := partsOf(next, &nbuf)
	if !allOwned(rp) || !allOwned(np) {
		return nil, fmt.Errorf("noc: decode constituent without an owning packet: reg=%v next=%v", reg, next)
	}
	var orig *Flit
	diff := 0
	for _, f := range rp {
		if !containsID(np, f.Packet.ID) {
			orig = f
			diff++
		}
	}
	for _, f := range np {
		if !containsID(rp, f.Packet.ID) {
			orig = f
			diff++
		}
	}
	if diff != 1 {
		return nil, fmt.Errorf("noc: decode difference has %d flits (want 1): reg=%v next=%v", diff, reg, next)
	}
	if got := reg.Raw ^ next.Raw; got != orig.Raw {
		return nil, fmt.Errorf("noc: decode mismatch: XOR image %#x != payload %#x of %v", got, orig.Raw, orig)
	}
	return orig, nil
}

package noc

import (
	"strings"
	"testing"

	"repro/internal/alloctest"
)

// TestSlabGrowsByChunksWithStableAddresses: Get carves slots off chunks of
// slabChunk packets; growing the slab moves no slot already handed out, and
// every slot is distinct.
func TestSlabGrowsByChunksWithStableAddresses(t *testing.T) {
	var s PacketSlab
	live := make([]*Packet, 0, 3*slabChunk)
	seen := make(map[*Packet]bool)
	for i := 0; i < 3*slabChunk; i++ {
		p := s.Get(uint64(i+1), 0, 1, 1, 0, int64(i))
		if seen[p] {
			t.Fatalf("slot %d handed out twice", i)
		}
		seen[p] = true
		live = append(live, p)
	}
	for i, p := range live {
		if p.ID != uint64(i+1) || p.CreateCycle != int64(i) || p.Payloads[0] != PayloadWord(p.ID, 0, 1, 0) {
			t.Fatalf("slot %d no longer holds its packet after the slab grew: %+v", i, p)
		}
	}
	if gap := uintptrOf(live[1]) - uintptrOf(live[0]); gap != sizeofPacket {
		t.Errorf("neighbouring slots are %d bytes apart, want one Packet (%d): not carved from a chunk", gap, sizeofPacket)
	}
	if avg := alloctest.Allocs(1, alloctest.Same(func() {
		for i := 0; i < slabChunk; i++ {
			s.Get(1, 0, 1, 1, 0, 0)
		}
	})); avg > 1 {
		t.Errorf("%v allocations for %d single-flit packets, want one chunk", avg, slabChunk)
	}
}

// TestSlabRecyclesLIFOAndReusesPayloads: Put scrubs, Get hands the same slot
// back re-initialized, and the slot's payload words follow it across tenants
// of lengths 1, 9 and 3 — the 9-flit tenant allocates them, the 3-flit one
// moves in for free.
func TestSlabRecyclesLIFOAndReusesPayloads(t *testing.T) {
	var s PacketSlab
	first := s.Get(1, 2, 3, 1, 1, 10)
	first.InjectCycle, first.DeliverCycle, first.Measured = 11, 20, true
	s.Put(first)
	if !first.Recycled() || first.ID != 0 || first.Measured || first.CreateCycle != 0 || first.Class != 0 {
		t.Errorf("a freed slot reads %+v, want it scrubbed", first)
	}

	nine := s.Get(2, 4, 5, 9, 0, 30)
	if nine != first {
		t.Fatal("the freed slot was not the next one handed out")
	}
	if nine.Recycled() || nine.InjectCycle != -1 || nine.DeliverCycle != -1 || nine.Measured || len(nine.Payloads) != 9 {
		t.Errorf("re-initialized slot reads %+v", nine)
	}
	words := &nine.Payloads[0]
	s.Put(nine)

	three := s.Get(3, 6, 7, 3, 0, 40)
	if three != first || len(three.Payloads) != 3 || &three.Payloads[0] != words {
		t.Errorf("the 9-flit tenant's payload words were not reused: %+v", three)
	}
	for i, w := range three.Payloads {
		if w != PayloadWord(3, 6, 7, i) {
			t.Errorf("payload word %d is %#x, want the new tenant's %#x", i, w, PayloadWord(3, 6, 7, i))
		}
	}
	s.Put(three)
	if one := s.Get(4, 0, 1, 1, 0, 50); one != first || one.Payloads[0] != PayloadWord(4, 0, 1, 0) || cap(one.Payloads) < 9 {
		t.Errorf("1-flit tenant of a 9-flit slot: %+v (the words should stay with the slot)", one)
	}
}

// TestSlabTurnaroundAllocs: a slot turning around between tenants allocates
// nothing, whatever their lengths, once it has held the longest.
func TestSlabTurnaroundAllocs(t *testing.T) {
	var s PacketSlab
	s.Put(s.Get(1, 0, 1, 9, 0, 0))
	length := 0
	if avg := alloctest.Allocs(100, alloctest.Same(func() {
		length = length%9 + 1
		s.Put(s.Get(2, 0, 1, length, 0, 0))
	})); avg != 0 {
		t.Errorf("Get+Put on a warm slot: %v allocs/op, want 0", avg)
	}
}

// TestNewPacketStandalone: NewPacket builds a packet outside any slab, and a
// slab takes one in as a slot of its own.
func TestNewPacketStandalone(t *testing.T) {
	p, q := NewPacket(1, 0, 1, 1, 0, 5), NewPacket(2, 0, 1, 9, 0, 6)
	if p == q || p.ID != 1 || q.Length != 9 || len(q.Payloads) != 9 || q.Payloads[8] != PayloadWord(2, 0, 1, 8) {
		t.Fatalf("NewPacket: %+v, %+v", p, q)
	}
	var s PacketSlab
	s.Put(q)
	if !q.Recycled() || s.Get(3, 1, 2, 4, 0, 7) != q || q.ID != 3 || len(q.Payloads) != 4 {
		t.Errorf("a standalone packet put on a slab is not its next slot: %+v", q)
	}
}

// TestQuarantineSweep: a slot goes back to the free list exactly when its
// last owner lets go — for every order in which the network retires the
// packet, its retransmission entry closes and its source interface finishes
// sending it — and not before; holding and releasing allocates nothing.
func TestQuarantineSweep(t *testing.T) {
	owners := []Owner{OwnedByNetwork, OwnedByEntry, OwnedBySource}
	for _, order := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		var s PacketSlab
		p := s.Get(1, 0, 1, 1, 0, 0)
		p.Hold(OwnedByEntry)
		p.Hold(OwnedBySource)
		for k, i := range order {
			if p.Recycled() {
				t.Fatalf("order %v: the slot went back before release %d of 3", order, k+1)
			}
			s.Release(p, owners[i])
		}
		if !p.Recycled() || p.Owned() || s.Get(2, 0, 1, 1, 0, 0) != p {
			t.Errorf("order %v: the last release did not put the slot", order)
		}
	}
	var s PacketSlab
	s.Release(s.Get(1, 0, 1, 1, 0, 0), OwnedByNetwork)
	if avg := alloctest.Allocs(100, alloctest.Same(func() {
		p := s.Get(2, 0, 1, 1, 0, 0)
		p.Hold(OwnedByEntry)
		s.Release(p, OwnedByNetwork)
		s.Release(p, OwnedByEntry)
	})); avg != 0 {
		t.Errorf("hold and release of a warm slot: %v allocs/op, want 0", avg)
	}
}

// TestSlabPutTwicePanics: a second Put of the same slot would hand it to two
// tenants at once.
func TestSlabPutTwicePanics(t *testing.T) {
	var s PacketSlab
	p := s.Get(1, 0, 1, 1, 0, 0)
	s.Put(p)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "twice") {
			t.Errorf("second Put: recovered %v", r)
		}
	}()
	s.Put(p)
}

// TestDanglingFlit: a flit whose packet's slot went back to the slab and took
// a new tenant — alone, and as a constituent of a superposition — still
// answers its own header ID, destination and tail bit, and reads closed;
// while its packet is live it reads the slot.
func TestDanglingFlit(t *testing.T) {
	var s PacketSlab
	a, b := s.Get(1, 0, 2, 1, 0, 0), s.Get(2, 1, 3, 3, 0, 0)
	fa, fb, body := NewFlit(a, 0), NewFlit(b, 2), NewFlit(b, 1)
	enc := Encode([]*Flit{fa, NewFlit(s.Get(3, 1, 2, 1, 0, 0), 0)})
	if fa.Slot() != a || fa.Closed() || fb.Slot() != b || fb.Closed() {
		t.Fatal("flits of live packets read closed")
	}
	s.Release(a, OwnedByNetwork)
	s.Release(b, OwnedByNetwork)
	if s.Get(9, 3, 0, 9, 0, 0) != b || s.Get(10, 2, 1, 1, 0, 0) != a {
		t.Fatal("the freed slots were not handed out again")
	}
	for _, c := range []struct {
		f           *Flit
		id          uint64
		dst         int32
		tail, multi bool
	}{{fa, 1, 2, true, false}, {enc.Parts[0], 1, 2, true, false}, {fb, 2, 3, true, true}, {body, 2, 3, false, true}} {
		if f := c.f; f.Slot() != nil || !f.Closed() || f.ID != c.id || f.Dst != c.dst || f.Tail() != c.tail || f.MultiFlit() != c.multi {
			t.Errorf("stale flit %v: slot %p closed %v, want packet %d to %d, tail %v, multi-flit %v",
				f, f.Slot(), f.Closed(), c.id, c.dst, c.tail, c.multi)
		}
	}
}

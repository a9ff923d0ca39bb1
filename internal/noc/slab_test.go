package noc

import (
	"strings"
	"testing"
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
	if avg := testing.AllocsPerRun(1, func() {
		for i := 0; i < slabChunk; i++ {
			s.Get(1, 0, 1, 1, 0, 0)
		}
	}); avg > 1 {
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
	if avg := testing.AllocsPerRun(100, func() {
		length = length%9 + 1
		s.Put(s.Get(2, 0, 1, length, 0, 0))
	}); avg != 0 {
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

// TestQuarantineSweep: a quarantined packet goes back to the free list at the first
// sweep that finds no holder reaching it, and not before; a sweep waits until
// the quarantine has grown by a chunk past what the last one kept.
func TestQuarantineSweep(t *testing.T) {
	var s PacketSlab
	var q Quarantine
	retired := make([]*Packet, slabChunk)
	for i := range retired {
		retired[i] = s.Get(uint64(i+1), 0, 1, 1, 0, 0)
	}
	held := retired[7]
	markHeld(held) // a mark from a sweep while it was live must not keep it
	holders := func(visit func(*Packet)) {
		if held != nil {
			visit(held)
		}
	}
	for _, p := range retired[:slabChunk-1] {
		q.Add(p)
	}
	q.Sweep(&s, holders)
	if waiting, _ := q.Len(); waiting != slabChunk-1 || retired[0].Recycled() {
		t.Fatalf("swept a quarantine one short of a chunk: %d waiting", waiting)
	}
	q.Add(retired[slabChunk-1])
	q.Sweep(&s, holders)
	if waiting, kept := q.Len(); waiting != 1 || kept != 1 || held.Recycled() || held.held {
		t.Fatalf("after the sweep: %d waiting, %d kept, the held packet reads %+v", waiting, kept, held)
	}
	for i, p := range retired {
		if p != held && !p.Recycled() {
			t.Fatalf("unheld packet %d was not returned", i)
		}
	}
	if avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < slabChunk; i++ {
			q.Add(s.Get(1, 0, 1, 1, 0, 0))
		}
		q.Sweep(&s, holders)
	}); avg != 0 {
		t.Errorf("a chunk of retirements and its sweep: %v allocs/op, want 0", avg)
	}
	held = nil
	for i := 0; i < slabChunk; i++ {
		q.Add(s.Get(1, 0, 1, 1, 0, 0))
	}
	q.Sweep(&s, holders)
	if waiting, kept := q.Len(); waiting != 0 || kept != 0 {
		t.Errorf("released holder: %d waiting, %d kept", waiting, kept)
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

// TestDanglingFlit: VisitPackets reaches the packet behind a flit and behind
// every constituent of a superposition, so an audit built on it sees a
// recycled packet wherever it hides.
func TestDanglingFlit(t *testing.T) {
	var s PacketSlab
	a, b := s.Get(1, 0, 2, 1, 0, 0), s.Get(2, 1, 2, 1, 0, 0)
	fa, fb := NewFlit(a, 0), NewFlit(b, 0)
	enc := Encode([]*Flit{fa, fb})
	dangling := func(f *Flit) bool {
		found := false
		f.VisitPackets(func(p *Packet) { found = found || p.Recycled() })
		return found
	}
	var seen []uint64
	enc.VisitPackets(func(p *Packet) { seen = append(seen, p.ID) })
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 || dangling(fa) || dangling(enc) {
		t.Fatalf("the superposition's walk reached %v, want [1 2] and nothing recycled", seen)
	}
	s.Put(b)
	if dangling(fa) || !dangling(fb) || !dangling(enc) {
		t.Errorf("after freeing packet 2: fa=%v fb=%v enc=%v, want false true true", dangling(fa), dangling(fb), dangling(enc))
	}
}

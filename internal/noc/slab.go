package noc

// PacketSlab is a network's packet store: chunked backing memory, so a slot's
// address is stable for the life of the slab, plus a LIFO free list. A packet
// is created once (injection, trace replay, snapshot restore) and dies once
// (its delivery), and between the two the simulator holds and compares it by
// pointer — source queue, reassembly, cached FIFO heads, reservations, every
// flit. Get re-initializes a free slot in place and Put takes a dead one
// back, so the inject -> step -> deliver loop allocates nothing once the
// slab has grown to the network's in-flight population.
//
// The lifetime rule this creates: a *Packet is valid until Put, which the
// network calls when the packet's delivery observers have returned. Put
// scrubs the slot (as Arena.Release scrubs a flit): a pointer held past that
// reads ID 0 and no cycles, answers Recycled, and panics in Latency — until
// the slot's next tenant moves in, which a LIFO list makes soon.
//
// A slab is single-owner: Get and Put run on the goroutine stepping the
// network, so there is no lock. Both are safe on a nil receiver — Get
// allocates one heap packet, Put does nothing — which is how a network that
// cannot prove a packet dead at its delivery (fault injection,
// retransmission) runs without recycling.
type PacketSlab struct {
	free  []*Packet
	chunk []Packet // unused tail of the newest chunk
}

// slabChunk is the number of packets carved per backing chunk (28 KB).
const slabChunk = 256

// Get returns an initialized packet: the most recently freed slot, else the
// next slot of the current chunk, growing the slab by a chunk when that is
// used up.
func (s *PacketSlab) Get(id uint64, src, dst NodeID, length int, class int, createCycle int64) *Packet {
	var p *Packet
	switch {
	case s == nil:
		p = &Packet{}
	case len(s.free) > 0:
		p = s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
	default:
		if len(s.chunk) == 0 {
			s.chunk = make([]Packet, slabChunk)
		}
		p, s.chunk = &s.chunk[0], s.chunk[1:]
	}
	p.init(id, src, dst, length, class, createCycle)
	return p
}

// Put takes back a packet nothing references any more and scrubs it. The
// payload slice stays with the slot for its next tenant, and so do the
// endpoints and the length: a flit that outlives its packet — which only a
// restored image that validation could not fault can contain — then still
// routes, and its interface refuses it by name, instead of indexing a route
// row with -1 on a worker goroutine. A packet built outside the slab
// (NewPacket) may be put too: it becomes a slot.
func (s *PacketSlab) Put(p *Packet) {
	if s == nil {
		return
	}
	if p.Recycled() {
		panic("noc: packet returned to its slab twice")
	}
	*p = Packet{Src: p.Src, Dst: p.Dst, Length: p.Length, Payloads: p.Payloads,
		InjectCycle: recycled, DeliverCycle: recycled}
	s.free = append(s.free, p)
}

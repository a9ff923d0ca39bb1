package noc

// PacketSlab is a network's packet store: chunked backing memory, so a slot's
// address is stable for the life of the slab, plus a LIFO free list. A packet
// is created once (injection, trace replay, snapshot restore) and retired
// once (delivered, or given up as undeliverable). Get re-initializes a free
// slot in place and Release hands it back when its last owner lets go (see
// Owner), so the inject -> step -> deliver loop allocates nothing once the
// slab has grown to the network's in-flight population.
//
// Put scrubs the slot (as Arena.Release scrubs a flit): a pointer held past
// that reads ID 0 and no cycles, answers Recycled, and panics in Latency —
// until the slot's next tenant moves in, which a LIFO list makes soon. A flit
// that outlives its packet compares its header ID with the slot's (see
// Flit.Slot), so it never mistakes the next tenant for its own packet.
//
// A slab is single-owner: Get, Put and Release run on the goroutine stepping
// the network, so there is no lock.
type PacketSlab struct {
	free  []*Packet
	chunk []Packet // unused tail of the newest chunk
	first []Packet // the first chunk, which Reset keeps
}

// slabChunk is the number of packets carved per backing chunk (26 KB).
const slabChunk = 256

// Get returns an initialized packet, held by OwnedByNetwork: the most
// recently freed slot, else the next slot of the current chunk, growing the
// slab by a chunk when that is used up.
func (s *PacketSlab) Get(id uint64, src, dst NodeID, length int, class int, createCycle int64) *Packet {
	var p *Packet
	if n := len(s.free); n > 0 {
		p = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		if len(s.chunk) == 0 {
			s.chunk = make([]Packet, slabChunk)
			if s.first == nil {
				s.first = s.chunk
			}
		}
		p, s.chunk = &s.chunk[0], s.chunk[1:]
	}
	p.init(id, src, dst, length, class, createCycle)
	p.Hold(OwnedByNetwork)
	return p
}

// Reset empties the slab for the next network built on its storage: it
// scrubs the first chunk and hands it out again from its first slot, as a
// new slab would carve it. Chunks past the first and a free list grown past
// one chunk are dropped, so a slab keeps at most one chunk across networks.
// No slot may be used after Reset.
func (s *PacketSlab) Reset() {
	clear(s.first)
	free := s.free[:0]
	clear(free[:cap(free)])
	if cap(free) > slabChunk {
		free = nil
	}
	*s = PacketSlab{free: free, chunk: s.first, first: s.first}
}

// Free returns how many slots wait on the free list.
func (s *PacketSlab) Free() int { return len(s.free) }

// Release ends o's hold on p and, when that was the last, puts the slot.
func (s *PacketSlab) Release(p *Packet, o Owner) {
	p.Drop(o)
	if !p.Owned() {
		s.Put(p)
	}
}

// Put takes back a slot no owner holds and scrubs it; the payload slice stays
// with the slot for its next tenant. A packet built outside the slab
// (NewPacket) may be put too: it becomes a slot.
func (s *PacketSlab) Put(p *Packet) {
	if p.Recycled() {
		panic("noc: packet returned to its slab twice")
	}
	*p = Packet{Payloads: p.Payloads, InjectCycle: recycled, DeliverCycle: recycled}
	s.free = append(s.free, p)
}

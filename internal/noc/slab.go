package noc

// PacketSlab is a network's packet store: chunked backing memory, so a slot's
// address is stable for the life of the slab, plus a LIFO free list. A packet
// is created once (injection, trace replay, snapshot restore) and retired
// once (delivered, or given up as undeliverable), and between the two the
// simulator holds and compares it by pointer — source queue, reassembly,
// cached FIFO heads, reservations, every flit. Get re-initializes a free slot
// in place and Put takes a dead one back, so the inject -> step -> deliver
// loop allocates nothing once the slab has grown to the network's in-flight
// population.
//
// A retired packet goes back one of two ways. Where its last reference
// provably dies at retirement — a network without faults or retransmission —
// the network calls Put as soon as the delivery observers return. Where it
// does not, the packet waits in a Quarantine until a holder sweep finds
// nothing pointing at it.
//
// Put scrubs the slot (as Arena.Release scrubs a flit): a pointer held past
// that reads ID 0 and no cycles, answers Recycled, and panics in Latency —
// until the slot's next tenant moves in, which a LIFO list makes soon.
//
// A slab is single-owner: Get and Put run on the goroutine stepping the
// network, so there is no lock.
type PacketSlab struct {
	free  []*Packet
	chunk []Packet // unused tail of the newest chunk
}

// slabChunk is the number of packets carved per backing chunk (28 KB), and
// the growth of a quarantine that triggers a sweep.
const slabChunk = 256

// Get returns an initialized packet: the most recently freed slot, else the
// next slot of the current chunk, growing the slab by a chunk when that is
// used up.
func (s *PacketSlab) Get(id uint64, src, dst NodeID, length int, class int, createCycle int64) *Packet {
	var p *Packet
	if n := len(s.free); n > 0 {
		p = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
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
	if p.Recycled() {
		panic("noc: packet returned to its slab twice")
	}
	*p = Packet{Src: p.Src, Dst: p.Dst, Length: p.Length, Payloads: p.Payloads,
		InjectCycle: recycled, DeliverCycle: recycled}
	s.free = append(s.free, p)
}

// Quarantine holds the retired packets of a network that cannot prove a
// packet's last reference dead at its retirement. A duplicate of a
// retransmitted packet, a flit stranded by a flush or an orphaned
// superposition constituent still routes and sequences through its packet
// pointer, so the slot may take a new tenant only once nothing points at it:
// Sweep finds those slots by marking everything the network's holders
// reference and returns the rest to the slab. Single-owner, like the slab.
type Quarantine struct {
	packets []*Packet
	// kept is how many packets the last sweep found held.
	kept int
}

// Add takes a retired packet that something may still reference.
func (q *Quarantine) Add(p *Packet) {
	p.held = false // a mark left by an earlier sweep, while p was live
	q.packets = append(q.packets, p)
}

// Len returns how many retired packets wait in the quarantine, and how many
// of them the last sweep found still held. A sweep runs once waiting reaches
// held plus a slab chunk, so waiting stays below that between steps.
func (q *Quarantine) Len() (waiting, held int) { return len(q.packets), q.kept }

// Sweep returns every quarantined packet no holder references to s, once the
// quarantine has grown by a slab chunk since the last sweep (so a sweep's
// cost is spread over at least a chunk of retirements). holders must call
// visit for every packet the network's between-step state references; it may
// visit a packet more than once. Between steps only.
func (q *Quarantine) Sweep(s *PacketSlab, holders func(visit func(*Packet))) {
	if len(q.packets) < q.kept+slabChunk {
		return
	}
	holders(markHeld)
	kept := q.packets[:0]
	for _, p := range q.packets {
		if p.held {
			p.held = false
			kept = append(kept, p)
		} else {
			s.Put(p)
		}
	}
	clear(q.packets[len(kept):])
	q.packets, q.kept = kept, len(kept)
}

func markHeld(p *Packet) { p.held = true }

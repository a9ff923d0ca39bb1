package noc

// Packet is a unit of transfer between two network interfaces. It is split
// into Length flits of 64 bits each; in the paper's configuration (Table 1),
// control packets are 1 flit (8 bytes) and data packets are 9 flits
// (72 bytes).
type Packet struct {
	ID  uint64
	Src NodeID
	Dst NodeID
	// Length is the number of flits.
	Length int
	// Payloads holds one 64-bit word per flit. The simulator carries the
	// real words end to end so that the NoX XOR coding scheme is verified
	// bit-exactly under every workload.
	Payloads []uint64

	// CreateCycle is the network cycle at which the packet was offered to
	// the source network interface (source queueing counts toward latency).
	CreateCycle int64
	// InjectCycle is the cycle the head flit entered the source router's
	// local input buffer, or -1 while still queued.
	InjectCycle int64
	// DeliverCycle is the cycle the tail flit was delivered (and, for NoX,
	// decoded) at the destination interface, or -1 while in flight.
	DeliverCycle int64

	// Class selects which physical network carries the packet when the
	// simulation uses multiple networks to isolate coherence traffic
	// classes (0 = request network, 1 = reply network).
	Class int

	// Measured marks packets created inside the measurement window; only
	// these contribute to reported statistics.
	Measured bool
	// held is a holder sweep's mark (see Quarantine.Sweep): set on every
	// packet something still references, read and cleared on the quarantined
	// ones. It sits in padding, so a Packet stays 112 bytes.
	held bool

	// payloadBuf inlines the payload storage for single-flit packets —
	// Table 1's control packets, the bulk of every workload — so building
	// one costs a single allocation.
	payloadBuf [1]uint64
}

// FlitBytes is the link width in bytes (64-bit flits and links, Table 1).
const FlitBytes = 8

// Undelivered is the DeliverCycle sentinel for a packet the network retired
// as provably undeliverable — its destination was partitioned away by a
// permanent fault, or end-to-end retransmission exhausted its retries —
// distinct from -1 (still in flight). Latency treats both as undelivered;
// the sentinel is what makes retirement idempotent and lets a late flit of
// a given-up packet be recognized and swallowed at the destination.
const Undelivered int64 = -2

// Bytes returns the packet size on the wire.
func (p *Packet) Bytes() int { return p.Length * FlitBytes }

// recycled is the DeliverCycle of a slot on its slab's free list (see
// PacketSlab.Put): below every cycle and both sentinels, so any arithmetic on
// it is visibly wrong and Latency refuses it by name.
const recycled int64 = -3

// Recycled reports that p is a freed slab slot: its packet was retired, the
// slab took the slot back, and whoever still holds p holds it past the end of
// its life. False for a nil packet, so audits need no nil test.
func (p *Packet) Recycled() bool { return p != nil && p.DeliverCycle == recycled }

// Latency returns the packet latency in cycles from creation to delivery.
// It panics if the packet has not been delivered, or is read after its
// delivery callback returned (its slot is recycled by then).
func (p *Packet) Latency() int64 {
	if p.DeliverCycle < 0 {
		if p.Recycled() {
			panic("noc: Latency on a recycled packet (a *Packet is valid until its OnDeliver returns)")
		}
		panic("noc: Latency on undelivered packet")
	}
	return p.DeliverCycle - p.CreateCycle
}

// NewPacket builds a standalone heap packet with deterministic payload words
// derived from its identity, so any corruption in transit (in particular
// through the XOR coding path) is detectable at delivery. Networks draw theirs
// from a PacketSlab instead; this is the form for hand-built rigs and tests.
func NewPacket(id uint64, src, dst NodeID, length int, class int, createCycle int64) *Packet {
	p := &Packet{}
	p.init(id, src, dst, length, class, createCycle)
	return p
}

// init (re)initializes p in place. The payload slice the slot's last tenant
// left (Put keeps it) is reused when it is long enough — for a single-flit
// tenant that is the slot's own inline word again.
func (p *Packet) init(id uint64, src, dst NodeID, length int, class int, createCycle int64) {
	words := p.Payloads
	*p = Packet{
		ID:           id,
		Src:          src,
		Dst:          dst,
		Length:       length,
		CreateCycle:  createCycle,
		InjectCycle:  -1,
		DeliverCycle: -1,
		Class:        class,
	}
	switch {
	case cap(words) >= length:
		p.Payloads = words[:length]
	case length == 1:
		p.Payloads = p.payloadBuf[:1]
	default:
		p.Payloads = make([]uint64, length)
	}
	for i := range p.Payloads {
		p.Payloads[i] = PayloadWord(id, src, dst, i)
	}
}

// PayloadWord is the canonical payload of flit seq of packet id. Delivery
// checks recompute it to verify bit-exact transport.
func PayloadWord(id uint64, src, dst NodeID, seq int) uint64 {
	z := id*0x9e3779b97f4a7c15 ^ uint64(src)<<48 ^ uint64(dst)<<32 ^ uint64(seq)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

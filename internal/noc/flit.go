package noc

import "fmt"

// Flit is a 64-bit unit of link and switch traversal.
//
// An unencoded flit belongs to exactly one packet and carries that packet's
// payload word for its sequence position. An encoded flit is the wire image
// produced by the NoX XOR switch when several inputs collide: Raw is the
// bitwise XOR of the constituent flits' words and Parts records which
// original flits were superimposed (the simulator's view of information that
// hardware recovers implicitly through the decode protocol). Only single-flit
// packets are ever encoded; collisions involving multi-flit packets abort
// (paper §2.7).
//
// An unencoded flit carries its own header — packet ID, destination, tail and
// multi-flit bits — stamped when it is made, as a hardware flit carries its
// header in its word. Routing, tail tests, traces and fault bookkeeping read
// the header, never the packet, so a flit may outlive its packet's slab slot
// (a duplicate of a retransmitted packet, an absorbed decode copy): such a
// flit is Closed, and only the interface delivering a flit, the snapshot
// codec and String ever look behind the header, through Slot.
type Flit struct {
	// Packet is the owning packet's slab slot, nil when Encoded (or after
	// Arena.Release). It holds the flit's packet only while Slot says so.
	Packet *Packet
	// ID is the owning packet's ID, 0 for an encoded flit.
	ID uint64
	// Seq is the flit's index within its packet (0 = head).
	Seq int
	// Raw is the 64-bit wire image.
	Raw uint64
	// Parts lists the constituent original flits when Encoded.
	Parts []*Flit
	// Dst is the owning packet's destination: what lookahead routing reads.
	Dst int32
	// Encoded marks an XOR-superposition of several flits. On real
	// hardware this is the one-bit "encoded" sideband signal of §2.2.
	Encoded bool
	// OutPort is the flit's lookahead output port as a snapshot image
	// records it, and as a baseline router's FIFO keeps it (only the head's
	// is cached there). A NoX hop keeps its port in the header mirror beside
	// the flit pointer, so for NoX this field is written only where an image
	// can read it: a collision's constituents, a decode copy, an input
	// port's save, a restore. The core rig under benchmark/ also sets it on
	// the flits it offers, and compiles against it.
	OutPort Port
	// flags holds flitTail and flitMulti.
	flags uint8
}

// Header flag bits.
const (
	flitTail  uint8 = 1 << iota // last flit of its packet
	flitMulti                   // the packet is longer than one flit
)

// gone is the slot a flit restored from its header alone points at (see
// Arena.NewHeader): it answers no such flit's ID and is closed. Nothing
// writes to it.
var gone = Packet{InjectCycle: recycled, DeliverCycle: recycled}

// NewFlit builds flit seq of packet p.
func NewFlit(p *Packet, seq int) *Flit {
	f := &Flit{Packet: p, Seq: seq, Raw: p.Payloads[seq]}
	f.Stamp()
	return f
}

// Stamp writes f's header from its packet and sequence number. Every flit
// constructor does it; a flit built as a literal needs it before it is
// routed.
func (f *Flit) Stamp() {
	p := f.Packet
	f.ID, f.Dst, f.flags = p.ID, int32(p.Dst), 0
	if f.Seq == p.Length-1 {
		f.flags |= flitTail
	}
	if p.Length > 1 {
		f.flags |= flitMulti
	}
}

// Head reports whether the flit opens its packet. Encoded flits are treated
// as heads of each superimposed (single-flit) packet.
func (f *Flit) Head() bool { return f.Encoded || f.Seq == 0 }

// Tail reports whether the flit closes its packet.
func (f *Flit) Tail() bool { return f.Encoded || f.flags&flitTail != 0 }

// MultiFlit reports whether the flit belongs to a packet longer than one
// flit. Encoded flits never do, by construction.
func (f *Flit) MultiFlit() bool { return !f.Encoded && f.flags&flitMulti != 0 }

// Slot returns the flit's packet while its slab slot still holds it, nil
// once the slot was put back or re-tenanted (it then answers another ID:
// packet IDs are unique and never 0, and PacketSlab.Put scrubs the ID), and
// for a flit with no packet. Slab chunks are never freed, so reading a
// recycled slot's ID is safe.
func (f *Flit) Slot() *Packet {
	if p := f.Packet; p != nil && p.ID == f.ID {
		return p
	}
	return nil
}

// Closed reports that the flit's packet is done: delivered, retired as
// undeliverable, or gone from its slot altogether. A closed flit is a stale
// copy — its interface swallows it.
func (f *Flit) Closed() bool {
	p := f.Slot()
	return p == nil || p.DeliverCycle != -1
}

// String renders the flit for debugging and trace output. The source is
// read from the packet while its slot holds it, and is "?" after.
func (f *Flit) String() string {
	if f == nil {
		return "<nil>"
	}
	if f.Encoded {
		ids := make([]uint64, len(f.Parts))
		for i, p := range f.Parts {
			ids[i] = p.ID // an unowned part (see Decode) prints as 0
		}
		return fmt.Sprintf("enc%v raw=%#x", ids, f.Raw)
	}
	if f.Packet == nil {
		return fmt.Sprintf("unowned raw=%#x", f.Raw)
	}
	kind := "b"
	if f.Seq == 0 {
		kind = "h"
	}
	if f.Tail() {
		if f.Seq == 0 {
			kind = "ht"
		} else {
			kind = "t"
		}
	}
	src := "?"
	if p := f.Slot(); p != nil {
		src = fmt.Sprint(p.Src)
	}
	return fmt.Sprintf("pkt%d.%d%s %s->%d", f.ID, f.Seq, kind, src, f.Dst)
}

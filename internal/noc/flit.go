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
type Flit struct {
	// Packet is the owning packet. It is nil iff Encoded.
	Packet *Packet
	// Seq is the flit's index within its packet (0 = head).
	Seq int
	// Raw is the 64-bit wire image.
	Raw uint64
	// Encoded marks an XOR-superposition of several flits. On real
	// hardware this is the one-bit "encoded" sideband signal of §2.2.
	Encoded bool
	// Parts lists the constituent original flits when Encoded.
	Parts []*Flit
	// OutPort is the output port at the router currently holding the flit,
	// precomputed by lookahead route computation on arrival.
	OutPort Port
}

// NewFlit builds flit seq of packet p.
func NewFlit(p *Packet, seq int) *Flit {
	return &Flit{Packet: p, Seq: seq, Raw: p.Payloads[seq]}
}

// Head reports whether the flit opens its packet. Encoded flits are treated
// as heads of each superimposed (single-flit) packet.
func (f *Flit) Head() bool { return f.Encoded || f.Seq == 0 }

// Tail reports whether the flit closes its packet.
func (f *Flit) Tail() bool { return f.Encoded || f.Seq == f.Packet.Length-1 }

// MultiFlit reports whether the flit belongs to a packet longer than one
// flit. Encoded flits never do, by construction.
func (f *Flit) MultiFlit() bool { return !f.Encoded && f.Packet.Length > 1 }

// VisitPackets calls visit with the packet behind f, or, for an encoded f,
// behind each of its constituents: every packet the flit keeps reachable.
// The holder walks of the audits and the packet sweep are built on it.
func (f *Flit) VisitPackets(visit func(*Packet)) {
	for _, part := range f.Parts {
		part.VisitPackets(visit)
	}
	if f.Packet != nil {
		visit(f.Packet)
	}
}

// String renders the flit for debugging and trace output.
func (f *Flit) String() string {
	if f == nil {
		return "<nil>"
	}
	if f.Encoded {
		ids := make([]uint64, len(f.Parts))
		for i, p := range f.Parts {
			if p.Packet != nil { // an unowned part (see Decode) prints as 0
				ids[i] = p.Packet.ID
			}
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
	return fmt.Sprintf("pkt%d.%d%s %d->%d", f.Packet.ID, f.Seq, kind, f.Packet.Src, f.Packet.Dst)
}

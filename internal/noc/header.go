package noc

// Header is the routing header of a flit as the datapath carries it beside
// the flit pointer, packed in 32 bits: the destination, the head, tail,
// multi-flit and encoded bits (the last is §2.2's one-bit sideband), and the
// lookahead output port at the router holding the flit. It is what a hop
// reads of a flit — route computation, the output logic's wormhole and abort
// rules — so a link stages it next to the flit it carries (Link.SendHeader,
// Link.Take) and an input port keeps it per buffered flit: the flit itself is
// read only for its payload.
//
// The port is per hop and does not travel: a link carries whatever port the
// sender held, and the receiving port replaces it (Route).
type Header uint32

const (
	hdrDstBits          = 23
	hdrDst       Header = 1<<hdrDstBits - 1
	hdrPortShift        = hdrDstBits
	hdrPort      Header = 31 << hdrPortShift
	hdrHead      Header = 1 << 28
	hdrTail      Header = 1 << 29
	hdrMulti     Header = 1 << 30
	hdrEncoded   Header = 1 << 31
)

// MaxDst is the largest destination a header holds: a system has at most
// MaxDst+1 cores (System.Check).
const MaxDst = NodeID(hdrDst)

// EncodedHeader is the header of every encoded superposition: head and tail
// of each of its single-flit constituents, with no destination of its own.
const EncodedHeader = hdrEncoded | hdrHead | hdrTail

// Header returns the flit's routing header, port 0. Encoded flits all share
// EncodedHeader.
func (f *Flit) Header() Header {
	if f.Encoded {
		return EncodedHeader
	}
	if uint32(f.Dst) > uint32(MaxDst) {
		panic("noc: flit destination does not fit its header")
	}
	h := Header(f.Dst)
	if f.Seq == 0 {
		h |= hdrHead
	}
	if f.flags&flitTail != 0 {
		h |= hdrTail
	}
	if f.flags&flitMulti != 0 {
		h |= hdrMulti
	}
	return h
}

// Dst returns the destination the header routes to.
func (h Header) Dst() NodeID { return NodeID(h & hdrDst) }

// Port returns the lookahead output port the header names.
func (h Header) Port() Port { return Port(h & hdrPort >> hdrPortShift) }

// Route returns the header with its lookahead output port set to p.
func (h Header) Route(p Port) Header { return h&^hdrPort | Header(p)<<hdrPortShift&hdrPort }

// Wire returns the header without its port: what a flit's own fields give
// (Flit.Header), for comparing a kept header with its flit.
func (h Header) Wire() Header { return h &^ hdrPort }

// Encoded reports an XOR superposition of several flits.
func (h Header) Encoded() bool { return h&hdrEncoded != 0 }

// Head reports a flit that opens its packet; encoded flits are heads of each
// superimposed packet.
func (h Header) Head() bool { return h&hdrHead != 0 }

// Tail reports a flit that closes its packet; encoded flits are tails too.
func (h Header) Tail() bool { return h&hdrTail != 0 }

// MultiFlit reports a flit of a packet longer than one flit (never encoded).
func (h Header) MultiFlit() bool { return h&hdrMulti != 0 }

package noc

import "testing"

// TestFlitHeader: a flit's header answers what its own fields do — the
// destination, head, tail and multi-flit bits — for every position of a
// one-flit and a three-flit packet, stale and encoded flits included; a port
// set on it by Route leaves the rest alone, and Wire strips it again.
func TestFlitHeader(t *testing.T) {
	one, three := NewPacket(1, 0, 5, 1, 0, 0), NewPacket(2, 3, MaxDst, 3, 0, 0)
	flits := []*Flit{NewFlit(one, 0), NewFlit(three, 0), NewFlit(three, 1), NewFlit(three, 2),
		(&Arena{}).NewHeader(9, 7, 1, true, true, 0)}
	for _, f := range flits {
		h := f.Header()
		if h.Dst() != NodeID(f.Dst) || h.Head() != f.Head() || h.Tail() != f.Tail() ||
			h.MultiFlit() != f.MultiFlit() || h.Encoded() || h.Port() != 0 {
			t.Errorf("%v: header %#x disagrees with the flit", f, uint32(h))
		}
		for _, p := range []Port{North, Local, 31} {
			r := h.Route(p)
			if r.Port() != p || r.Wire() != h || r.Dst() != h.Dst() || r.Tail() != h.Tail() {
				t.Errorf("%v: header %#x routed to %d reads port %d, wire %#x", f, uint32(h), p, r.Port(), uint32(r.Wire()))
			}
		}
	}
	enc := Encode([]*Flit{NewFlit(one, 0), NewFlit(NewPacket(3, 0, 1, 1, 0, 0), 0)})
	if h := enc.Header(); h != EncodedHeader || !h.Encoded() || !h.Head() || !h.Tail() || h.MultiFlit() {
		t.Errorf("superposition header %#x, want EncodedHeader %#x", uint32(h), uint32(EncodedHeader))
	}
	if err := (System{Grid: Topology{Width: 4096, Height: 4096}, Concentration: 1}).Check(); err == nil {
		t.Error("a system with more cores than a header addresses passed Check")
	}
}

package codec_test

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/noc"
	"repro/internal/snapshot/codec"
)

// image is everything the round-trip tests write, in order: every scalar
// kind, then packets and flits with back-references, and packet references
// live, by ID and nil.
type image struct {
	u []uint64
	i []int64
	n int
	b [2]bool
	s []string

	nilPkt, canon, custom, canonRef *noc.Packet

	nilFlit, body, enc, enc2, partRef, stale, encStale *noc.Flit

	refP, staleP, noP    *noc.Packet
	refID, staleID, noID uint64
}

// fixture builds the image: a canonical multi-flit packet and a delivered one
// whose payload word no longer matches it; a body flit; two superpositions
// sharing constituents; a flit whose packet's slot went back to the slab and
// took a new tenant, alone and inside a superposition; and references to a
// live packet, to the recycled one by ID, and to none.
func fixture() image {
	var slab noc.PacketSlab
	canon := slab.Get(7, 1, 2, 3, 0, 10)
	canon.InjectCycle, canon.Measured = 12, true
	custom := slab.Get(8, 2, 1, 1, 1, 11)
	custom.Payloads[0] ^= 0xFF
	custom.DeliverCycle = 30
	single := func(id uint64) *noc.Flit { return noc.NewFlit(slab.Get(id, 0, 3, 1, 0, 0), 0) }
	b, c, d := single(9), single(10), single(11)
	body := noc.NewFlit(canon, 1)
	body.OutPort = noc.East
	enc := noc.Encode([]*noc.Flit{b, c, d})
	enc.OutPort = noc.West
	gone := slab.Get(12, 3, 0, 1, 0, 0)
	stale := noc.NewFlit(gone, 0)
	stale.OutPort = noc.North
	slab.Release(gone, noc.OwnedByNetwork) // the slot goes back, and single(13) moves in
	return image{
		u: []uint64{0, 1, 127, 128, 1 << 63, math.MaxUint64},
		i: []int64{0, -1, 1, math.MinInt64, math.MaxInt64},
		n: -7, b: [2]bool{true, false},
		s: []string{"", "noc ✓"},

		canon: canon, custom: custom, canonRef: canon,

		body: body, enc: enc, enc2: noc.Encode([]*noc.Flit{c, d}), partRef: b,
		stale: stale, encStale: noc.Encode([]*noc.Flit{stale, single(13)}),

		refP: canon, refID: 7, staleP: gone, staleID: 12,
	}
}

func (m *image) write(e *codec.Encoder) {
	for _, v := range m.u {
		e.U64(v)
	}
	for _, v := range m.i {
		e.I64(v)
	}
	e.Int(m.n)
	e.Bool(m.b[0])
	e.Bool(m.b[1])
	for _, v := range m.s {
		e.String(v)
	}
	for _, p := range []*noc.Packet{m.nilPkt, m.canon, m.custom, m.canonRef} {
		e.Packet(p)
	}
	for _, f := range []*noc.Flit{m.nilFlit, m.body, m.enc, m.enc2, m.partRef, m.stale, m.encStale} {
		e.Flit(f)
	}
	e.PacketRef(m.refP, m.refID)
	e.PacketRef(m.staleP, m.staleID)
	e.PacketRef(m.noP, m.noID)
}

// read decodes what write wrote for an image shaped like shape. It never
// dereferences what it reads, so it runs on any prefix.
func read(d *codec.Decoder, shape *image) image {
	m := image{u: make([]uint64, len(shape.u)), i: make([]int64, len(shape.i)),
		s: make([]string, len(shape.s))}
	for k := range m.u {
		m.u[k] = d.U64()
	}
	for k := range m.i {
		m.i[k] = d.I64()
	}
	m.n = d.Int()
	m.b = [2]bool{d.Bool(), d.Bool()}
	for k := range m.s {
		m.s[k] = d.String()
	}
	m.nilPkt, m.canon, m.custom, m.canonRef = d.Packet(), d.Packet(), d.Packet(), d.Packet()
	m.nilFlit, m.body, m.enc, m.enc2 = d.Flit(), d.Flit(), d.Flit(), d.Flit()
	m.partRef, m.stale, m.encStale = d.Flit(), d.Flit(), d.Flit()
	m.refP, m.refID = d.PacketRef()
	m.staleP, m.staleID = d.PacketRef()
	m.noP, m.noID = d.PacketRef()
	return m
}

func samePacket(t *testing.T, got, want *noc.Packet) {
	t.Helper()
	if got == nil || got.ID != want.ID || got.Src != want.Src || got.Dst != want.Dst || got.Length != want.Length ||
		got.Class != want.Class || got.CreateCycle != want.CreateCycle || got.InjectCycle != want.InjectCycle ||
		got.DeliverCycle != want.DeliverCycle || got.Measured != want.Measured || !slices.Equal(got.Payloads, want.Payloads) {
		t.Errorf("packet decoded as %+v, want %+v", got, want)
	}
}

// TestRoundTrip: every scalar and object decodes to what was written, shared
// objects decode shared, a stale flit and a reference to its packet come
// back by header and ID, and re-encoding what was decoded reproduces the
// image byte for byte.
func TestRoundTrip(t *testing.T) {
	want := fixture()
	e := codec.NewEncoder()
	want.write(e)
	img := e.Bytes()
	if e.Headers() != 1 {
		t.Errorf("%d flits written by header, want 1 (the stale flit, then a back-reference)", e.Headers())
	}
	d := codec.NewDecoder(img)
	got := read(d, &want)
	if err := d.Err(); err != nil || d.Remaining() != 0 {
		t.Fatalf("decode: %v, %d bytes left", err, d.Remaining())
	}
	if !slices.Equal(got.u, want.u) || !slices.Equal(got.i, want.i) || got.n != want.n || got.b != want.b || !slices.Equal(got.s, want.s) {
		t.Errorf("scalars decoded as %v %v %v %v %q", got.u, got.i, got.n, got.b, got.s)
	}
	samePacket(t, got.canon, want.canon)
	samePacket(t, got.custom, want.custom)
	if got.nilPkt != nil || got.canonRef != got.canon || got.nilFlit != nil {
		t.Error("nil or back-referenced packet decoded wrong")
	}
	if b := got.body; b.Packet != got.canon || b.ID != 7 || b.Dst != 2 || b.Seq != 1 || b.Raw != want.body.Raw ||
		b.OutPort != noc.East || b.Tail() || !b.MultiFlit() {
		t.Errorf("body flit decoded as %v", b)
	}
	if !got.enc.Encoded || len(got.enc.Parts) != 3 || got.enc.Raw != want.enc.Raw || got.enc.OutPort != noc.West {
		t.Fatalf("superposition decoded as %v", got.enc)
	}
	for k, p := range got.enc.Parts {
		if w := want.enc.Parts[k]; p.ID != w.ID || p.Raw != w.Raw || p.Slot() == nil {
			t.Errorf("constituent %d decoded as %v, want %v", k, p, w)
		}
	}
	if got.enc2.Parts[0] != got.enc.Parts[1] || got.enc2.Parts[1] != got.enc.Parts[2] || got.partRef != got.enc.Parts[0] {
		t.Error("shared constituents decoded as separate objects")
	}
	if s := got.stale; s.Slot() != nil || !s.Closed() || s.ID != 12 || s.Dst != 0 || s.Seq != 0 || !s.Tail() ||
		s.MultiFlit() || s.Raw != want.stale.Raw || s.OutPort != noc.North {
		t.Errorf("stale flit decoded as %v (slot %p)", s, s.Slot())
	}
	if got.encStale.Parts[0] != got.stale || got.encStale.Parts[1].ID != 13 {
		t.Errorf("superposition holding the stale flit decoded as %v", got.encStale)
	}
	if got.refP != got.canon || got.refID != 7 || got.staleP != nil || got.staleID != 12 || got.noP != nil || got.noID != 0 {
		t.Errorf("packet references decoded as (%p, %d) (%p, %d) (%p, %d)", got.refP, got.refID, got.staleP, got.staleID, got.noP, got.noID)
	}
	again := codec.NewEncoder()
	got.write(again)
	if !bytes.Equal(again.Bytes(), img) {
		t.Errorf("re-encoding the decoded image gives %d bytes that differ from its %d", len(again.Bytes()), len(img))
	}
}

// TestPrefixesFailTyped: every proper prefix of a valid image leaves Err
// holding ErrTruncated or ErrCorrupt — never a panic, never nil.
func TestPrefixesFailTyped(t *testing.T) {
	want := fixture()
	e := codec.NewEncoder()
	want.write(e)
	img := e.Bytes()
	for n := 0; n < len(img); n++ {
		d := codec.NewDecoder(img[:n])
		read(d, &want)
		if err := d.Err(); !errors.Is(err, codec.ErrTruncated) && !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("%d-byte prefix of %d: Err() = %v", n, len(img), err)
		}
	}
}

// TestHeaderTagRejected: a packet by its ID alone is read only where
// PacketRef reads it — a plain Packet read rejects the tag as corrupt, as a
// decoder that predates it does — and a flit header that contradicts itself
// (body flit of a single-flit packet) is corrupt too.
func TestHeaderTagRejected(t *testing.T) {
	var slab noc.PacketSlab
	p := slab.Get(5, 0, 1, 1, 0, 0)
	f := noc.NewFlit(p, 0)
	slab.Release(p, noc.OwnedByNetwork)
	e := codec.NewEncoder()
	e.PacketRef(p, 5)
	if d := codec.NewDecoder(e.Bytes()); d.Packet() != nil || !errors.Is(d.Err(), codec.ErrCorrupt) {
		t.Errorf("Packet on an ID-only reference: err %v, want ErrCorrupt", d.Err())
	}
	f.Seq = 1
	e = codec.NewEncoder()
	e.Flit(f)
	if d := codec.NewDecoder(e.Bytes()); d.Flit() != nil || !errors.Is(d.Err(), codec.ErrCorrupt) {
		t.Errorf("flit header seq 1 of a single-flit packet: err %v, want ErrCorrupt", d.Err())
	}
}

// Package codec implements the primitive binary layer of the snapshot
// format: varint-coded scalars plus pointer-graph interning for the flit and
// packet objects that the network state references, preserving sharing (the
// same *Flit reachable from an input FIFO and from a downstream encoded
// flit's constituent set decodes back to one object, because the simulator
// compares some of them by identity).
//
// The decoder is hardened against hostile input: every read is bounds
// checked, every length is capped before allocation, and every failure is a
// typed error (ErrTruncated, ErrCorrupt, ErrVersion, ErrUnsupported) — it
// must never panic, which the snapshot fuzz target enforces.
package codec

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/arbiter"
	"repro/internal/noc"
)

// Typed decode errors. All decoder failures wrap one of these.
var (
	// ErrTruncated reports input that ends mid-value.
	ErrTruncated = errors.New("snapshot: truncated input")
	// ErrCorrupt reports structurally invalid input: a bad tag, an
	// out-of-range length, a reference to an object never defined.
	ErrCorrupt = errors.New("snapshot: corrupt input")
	// ErrVersion reports a snapshot written by an incompatible format
	// version.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrUnsupported reports state the snapshot layer cannot capture, such
	// as a custom arbiter implementation.
	ErrUnsupported = errors.New("snapshot: unsupported state")
)

// Caps on decoded lengths, generous multiples of anything a real network
// produces, so corrupt input cannot drive huge allocations.
const (
	maxPacketFlits = 1 << 16
	maxParts       = 1 << 8
	maxSliceLen    = 1 << 26
	// maxPorts is the router radix ceiling (router.Config.Ports <= 32): a
	// flit's lookahead output port outside [0, maxPorts) indexes no router.
	maxPorts = 32
)

// Flit/packet wire tags.
const (
	tagNil  = 0 // nil pointer
	tagRef  = 1 // back-reference to an interned object
	tagNew  = 2 // first encounter, full encoding (unencoded flit)
	tagNewE = 3 // first encounter, encoded (XOR superposition) flit
	// tagHdr is an unencoded flit by its header alone or, where PacketRef
	// reads it, a packet by its ID alone: what a stale flit, and a holder
	// filled from one, name once the packet's slot went back to the slab. A
	// decoder that predates it rejects it as corrupt.
	tagHdr = 4
)

// Encoder serializes scalars and interned object graphs into an in-memory
// buffer. The zero value is not usable; call NewEncoder.
type Encoder struct {
	buf     []byte
	packets map[*noc.Packet]uint64
	flits   map[*noc.Flit]uint64
	headers int
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder {
	return &Encoder{
		packets: make(map[*noc.Packet]uint64),
		flits:   make(map[*noc.Flit]uint64),
	}
}

// Bytes returns the encoded image. The slice aliases the encoder's buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Headers returns how many flits the encoder wrote by their header alone.
func (e *Encoder) Headers() int { return e.headers }

// U64 appends an unsigned varint.
func (e *Encoder) U64(v uint64) {
	for v >= 0x80 {
		e.buf = append(e.buf, byte(v)|0x80)
		v >>= 7
	}
	e.buf = append(e.buf, byte(v))
}

// I64 appends a zigzag-coded signed varint.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)<<1 ^ uint64(v>>63)) }

// Int appends a zigzag-coded int.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// Bool appends a single 0/1 byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Int(len(s))
	e.buf = append(e.buf, s...)
}

// Packet appends a packet reference: nil, a back-reference to an already
// interned packet, or the full field image on first encounter.
func (e *Encoder) Packet(p *noc.Packet) {
	if p == nil {
		e.buf = append(e.buf, tagNil)
		return
	}
	if id, ok := e.packets[p]; ok {
		e.buf = append(e.buf, tagRef)
		e.U64(id)
		return
	}
	e.buf = append(e.buf, tagNew)
	e.packets[p] = uint64(len(e.packets))
	e.U64(p.ID)
	e.I64(int64(p.Src))
	e.I64(int64(p.Dst))
	e.Int(p.Length)
	e.Int(p.Class)
	e.I64(p.CreateCycle)
	e.I64(p.InjectCycle)
	e.I64(p.DeliverCycle)
	e.Bool(p.Measured)
	canonical := len(p.Payloads) == p.Length
	for i := 0; canonical && i < p.Length; i++ {
		canonical = p.Payloads[i] == noc.PayloadWord(p.ID, p.Src, p.Dst, i)
	}
	e.Bool(canonical)
	if !canonical {
		for _, w := range p.Payloads {
			e.U64(w)
		}
	}
}

// Flit appends a flit reference: nil, a back-reference, or a full encoding.
// Unencoded flits carry their owning packet (interned) plus the mutable wire
// fields, or, once the packet's slot went back to the slab, their header;
// encoded flits carry their constituent set recursively. Interning
// order matches the decoder's construction order exactly.
func (e *Encoder) Flit(f *noc.Flit) {
	if f == nil {
		e.buf = append(e.buf, tagNil)
		return
	}
	if id, ok := e.flits[f]; ok {
		e.buf = append(e.buf, tagRef)
		e.U64(id)
		return
	}
	if f.Encoded {
		e.buf = append(e.buf, tagNewE)
		e.Int(len(f.Parts))
		for _, part := range f.Parts {
			e.Flit(part)
		}
		e.flits[f] = uint64(len(e.flits))
		e.U64(f.Raw)
		e.Int(int(f.OutPort))
		return
	}
	if p := f.Slot(); p != nil {
		e.buf = append(e.buf, tagNew)
		e.Packet(p)
		e.flits[f] = uint64(len(e.flits))
		e.Int(f.Seq)
		e.U64(f.Raw)
		e.Int(int(f.OutPort))
		return
	}
	// A stale flit: its packet's slot went back to the slab, and the header
	// is all there is to write.
	e.buf = append(e.buf, tagHdr)
	e.flits[f] = uint64(len(e.flits))
	e.headers++
	e.U64(f.ID)
	e.I64(int64(f.Dst))
	e.Int(f.Seq)
	e.Bool(f.Tail())
	e.Bool(f.MultiFlit())
	e.U64(f.Raw)
	e.Int(int(f.OutPort))
}

// PacketRef appends what a holder a stale flit may have filled names (a Spec
// reservation): packet p while its slot still holds packet id, written as
// Packet writes it, so an image without stale state keeps its bytes; the ID
// alone once the slot went back to the slab; nil for id 0.
func (e *Encoder) PacketRef(p *noc.Packet, id uint64) {
	switch {
	case id == 0:
		e.Packet(nil)
	case p != nil && p.ID == id:
		e.Packet(p)
	default:
		e.buf = append(e.buf, tagHdr)
		e.U64(id)
	}
}

// Decoder reads the encoder's format back with sticky error handling: after
// the first failure every subsequent read returns the zero value and Err
// reports the original cause.
type Decoder struct {
	buf     []byte
	off     int
	err     error
	packets []*noc.Packet
	flits   []*noc.Flit
	arena   *noc.Arena
	slab    *noc.PacketSlab
	cores   int
	// queued marks the flits QueuedFlit has handed out.
	queued map[*noc.Flit]bool
}

// NewDecoder reads from data. The decoder aliases the slice.
func NewDecoder(data []byte) *Decoder { return &Decoder{buf: data} }

// SetArena selects the flit arena subsequent Flit decodes allocate from. A
// nil arena falls back to the heap. The restoring network switches arenas as
// it walks shards so per-shard accounting stays plausible.
func (d *Decoder) SetArena(a *noc.Arena) { d.arena = a }

// SetPackets selects the slab subsequent Packet decodes draw from: the
// restoring network's own, so restored packets are recycled like
// injected ones. Nil, the default, allocates each on the heap.
func (d *Decoder) SetPackets(s *noc.PacketSlab) { d.slab = s }

// SetCores tells the decoder how many cores the restoring network has:
// from here on a packet whose source or destination is not one of them is
// corrupt (routers index their route row by destination). Zero, the
// default, accepts any.
func (d *Decoder) SetCores(n int) { d.cores = n }

// Packets returns the packets decoded so far, in the order they were first
// met.
func (d *Decoder) Packets() []*noc.Packet { return d.packets }

// Err returns the first error encountered, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// fail records the first error.
func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *Decoder) failf(base error, format string, args ...any) {
	d.fail(fmt.Errorf("%w: "+format, append([]any{base}, args...)...))
}

// U64 reads an unsigned varint.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if d.off >= len(d.buf) {
			d.fail(ErrTruncated)
			return 0
		}
		b := d.buf[d.off]
		d.off++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			// Reject non-canonical overlong encodings in the final group.
			if shift == 63 && b > 1 {
				d.failf(ErrCorrupt, "varint overflow")
				return 0
			}
			return v
		}
	}
	d.failf(ErrCorrupt, "varint too long")
	return 0
}

// I64 reads a zigzag-coded signed varint.
func (d *Decoder) I64() int64 {
	v := d.U64()
	return int64(v>>1) ^ -int64(v&1)
}

// Int reads a zigzag-coded int.
func (d *Decoder) Int() int { return int(d.I64()) }

// Len reads a length written with Int (the universal length convention in
// this format) and rejects negatives and values above max before any
// allocation happens.
func (d *Decoder) Len(max int) int {
	v := d.I64()
	if d.err != nil {
		return 0
	}
	if v < 0 || v > int64(max) {
		d.failf(ErrCorrupt, "length %d outside [0,%d]", v, max)
		return 0
	}
	return int(v)
}

// Bool reads a 0/1 byte.
func (d *Decoder) Bool() bool {
	b := d.byte()
	if d.err != nil {
		return false
	}
	if b > 1 {
		d.failf(ErrCorrupt, "bad bool byte %#x", b)
		return false
	}
	return b == 1
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Len(maxSliceLen)
	if d.err != nil {
		return ""
	}
	if d.off+n > len(d.buf) {
		d.fail(ErrTruncated)
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

func (d *Decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail(ErrTruncated)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Packet reads a packet reference. First encounters are rebuilt through the
// slab's Get so canonical payloads and inline buffers come out exactly as live
// construction produces them.
func (d *Decoder) Packet() *noc.Packet {
	p, _ := d.packetRef(false)
	return p
}

// PacketRef reads what Encoder.PacketRef wrote: a packet and its ID; nil and
// the ID alone for one whose slot had gone back to the slab; nil and 0 for
// none.
func (d *Decoder) PacketRef() (*noc.Packet, uint64) { return d.packetRef(true) }

func (d *Decoder) packetRef(byID bool) (*noc.Packet, uint64) {
	switch tag := d.byte(); tag {
	case tagNil:
		return nil, 0
	case tagRef:
		id := d.U64()
		if d.err != nil {
			return nil, 0
		}
		if id >= uint64(len(d.packets)) {
			d.failf(ErrCorrupt, "packet ref %d of %d", id, len(d.packets))
			return nil, 0
		}
		p := d.packets[id]
		return p, p.ID
	case tagHdr:
		if byID {
			id := d.U64()
			if d.err == nil && id == 0 {
				d.failf(ErrCorrupt, "packet reference by ID 0")
			}
			if d.err != nil {
				return nil, 0
			}
			return nil, id
		}
		d.failf(ErrCorrupt, "bad packet tag %#x", tag)
		return nil, 0
	case tagNew:
		id := d.U64()
		src := noc.NodeID(d.I64())
		dst := noc.NodeID(d.I64())
		length := d.Int()
		class := d.Int()
		create := d.I64()
		inject := d.I64()
		deliver := d.I64()
		measured := d.Bool()
		canonical := d.Bool()
		if d.err != nil {
			return nil, 0
		}
		if id == 0 {
			// A recycled slot reads ID 0 (see noc.Flit.Slot).
			d.failf(ErrCorrupt, "packet ID 0")
			return nil, 0
		}
		if length < 1 || length > maxPacketFlits {
			d.failf(ErrCorrupt, "packet length %d", length)
			return nil, 0
		}
		if inject < -1 || deliver < noc.Undelivered {
			d.failf(ErrCorrupt, "packet injected at %d, delivered at %d", inject, deliver)
			return nil, 0
		}
		if d.cores > 0 && (src < 0 || int(src) >= d.cores || dst < 0 || int(dst) >= d.cores) {
			d.failf(ErrCorrupt, "packet %d -> %d on %d cores", src, dst, d.cores)
			return nil, 0
		}
		var p *noc.Packet
		if d.slab != nil {
			p = d.slab.Get(id, src, dst, length, class, create)
		} else {
			p = noc.NewPacket(id, src, dst, length, class, create)
		}
		p.InjectCycle, p.DeliverCycle, p.Measured = inject, deliver, measured
		if !canonical {
			for i := range p.Payloads {
				p.Payloads[i] = d.U64()
			}
		}
		if d.err != nil {
			return nil, 0
		}
		d.packets = append(d.packets, p)
		return p, p.ID
	default:
		d.failf(ErrCorrupt, "bad packet tag %#x", tag)
		return nil, 0
	}
}

// QueuedFlit reads the flit occupying a buffer slot or a decode register, nil
// for an empty one. No two slots of one image may hold the same object: a
// flit is in one place at a time, and its buffer recycles it when it leaves —
// under any second holder. (A buffered flit may also be a constituent of a
// superposition in flight; those references go through Flit.)
func (d *Decoder) QueuedFlit() *noc.Flit {
	f := d.Flit()
	if d.err != nil || f == nil {
		return nil
	}
	if d.queued[f] {
		d.failf(ErrCorrupt, "one flit in two buffer slots")
		return nil
	}
	if d.queued == nil {
		d.queued = make(map[*noc.Flit]bool)
	}
	d.queued[f] = true
	return f
}

// Flit reads a flit reference. Unencoded flits are re-materialized from the
// current arena; encoded flits are rebuilt through the arena's Encode after
// validating every precondition Encode would otherwise panic on.
func (d *Decoder) Flit() *noc.Flit {
	switch tag := d.byte(); tag {
	case tagNil:
		return nil
	case tagRef:
		id := d.U64()
		if d.err != nil {
			return nil
		}
		if id >= uint64(len(d.flits)) {
			d.failf(ErrCorrupt, "flit ref %d of %d", id, len(d.flits))
			return nil
		}
		return d.flits[id]
	case tagNew:
		p := d.Packet()
		if d.err != nil {
			return nil
		}
		if p == nil {
			d.failf(ErrCorrupt, "unencoded flit without packet")
			return nil
		}
		seq := d.Int()
		raw := d.U64()
		port := noc.Port(d.Int())
		if d.err != nil {
			return nil
		}
		if seq < 0 || seq >= p.Length {
			d.failf(ErrCorrupt, "flit seq %d of packet length %d", seq, p.Length)
			return nil
		}
		if port < 0 || port >= maxPorts {
			d.failf(ErrCorrupt, "flit output port %d", port)
			return nil
		}
		f := d.arena.NewFlit(p, seq)
		// Raw is patched rather than recomputed: fault injection can leave a
		// flit's wire image diverged from its payload word.
		f.Raw, f.OutPort = raw, port
		d.flits = append(d.flits, f)
		return f
	case tagHdr:
		id := d.U64()
		dst := d.I64()
		seq := d.Int()
		tail := d.Bool()
		multi := d.Bool()
		raw := d.U64()
		port := noc.Port(d.Int())
		if d.err != nil {
			return nil
		}
		if id == 0 || seq < 0 || seq >= maxPacketFlits || !multi && (seq != 0 || !tail) {
			d.failf(ErrCorrupt, "flit header: packet %d seq %d tail %v multi-flit %v", id, seq, tail, multi)
			return nil
		}
		if dst < 0 || dst > math.MaxInt32 || d.cores > 0 && dst >= int64(d.cores) {
			d.failf(ErrCorrupt, "flit header: destination %d on %d cores", dst, d.cores)
			return nil
		}
		if port < 0 || port >= maxPorts {
			d.failf(ErrCorrupt, "flit output port %d", port)
			return nil
		}
		f := d.arena.NewHeader(id, noc.NodeID(dst), seq, tail, multi, raw)
		f.OutPort = port
		d.flits = append(d.flits, f)
		return f
	case tagNewE:
		n := d.Len(maxParts)
		if d.err != nil {
			return nil
		}
		if n < 2 {
			d.failf(ErrCorrupt, "encoded flit with %d parts", n)
			return nil
		}
		parts := make([]*noc.Flit, 0, n)
		for i := 0; i < n; i++ {
			part := d.Flit()
			if d.err != nil {
				return nil
			}
			// Validate what Arena.Encode panics on.
			if part == nil || part.Encoded || part.MultiFlit() {
				d.failf(ErrCorrupt, "invalid constituent flit in superposition")
				return nil
			}
			parts = append(parts, part)
		}
		raw := d.U64()
		port := noc.Port(d.Int())
		if d.err != nil {
			return nil
		}
		if port < 0 || port >= maxPorts {
			d.failf(ErrCorrupt, "flit output port %d", port)
			return nil
		}
		f := d.arena.Encode(parts)
		f.Raw, f.OutPort = raw, port
		d.flits = append(d.flits, f)
		return f
	default:
		d.failf(ErrCorrupt, "bad flit tag %#x", tag)
		return nil
	}
}

// Arbiter writes an arbiter's priority state (see arbiter.State). A custom
// arbiter implementation fails with ErrUnsupported.
func (e *Encoder) Arbiter(a arbiter.Arbiter) error {
	st, err := arbiter.State(a)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrUnsupported, err)
	}
	e.Int(len(st))
	for _, w := range st {
		e.U64(w)
	}
	return nil
}

// PortIndex reads a router port index that may be -1 (none); anything outside
// [-1, ports) is corrupt.
func (d *Decoder) PortIndex(ports int) int {
	v := d.Int()
	if d.err == nil && (v < -1 || v >= ports) {
		d.failf(ErrCorrupt, "port index %d of %d ports", v, ports)
	}
	return v
}

// Arbiter reads priority state written by Encoder.Arbiter into a, an arbiter
// of the same type and width.
func (d *Decoder) Arbiter(a arbiter.Arbiter) error {
	words := make([]uint64, d.Len(64))
	for i := range words {
		words[i] = d.U64()
	}
	if d.err != nil {
		return d.err
	}
	if err := arbiter.Restore(a, words); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return nil
}

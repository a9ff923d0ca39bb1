// Package snapshot provides versioned, deterministic checkpointing of a
// complete network simulation: Encode serializes every piece of between-step
// state (router queues and FSMs, interface source queues and reassembly,
// in-flight packets and flits, link credits, power counters, and the
// invariant checker's ledger) to a compact binary image, Decode rebuilds a
// ready-to-step network from one.
//
// Snapshots are deterministic — saving the same network twice, or re-saving
// a freshly restored one, yields identical bytes — and portable across
// execution modes: a snapshot taken from a serial run restores into a
// sharded network (and vice versa) because results are
// bit-identical at every shard count. Non-serializable wiring (probes,
// checkers, fault injectors, observers) is supplied by the restore
// configuration, not the image; only structural parameters travel with it.
package snapshot

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/noc"
	"repro/internal/router"
	"repro/internal/snapshot/codec"
)

// magic identifies a snapshot stream ("NOXSNAP" in spirit); version is the
// wire-format revision. Decoders reject unknown versions with
// codec.ErrVersion so format evolution fails loudly instead of misparsing.
const (
	magic   uint64 = 0x4e4f585350415031 // "NOXSPA01"
	version uint64 = 2                  // v2: undeliverable accounting, hard-fault and retransmission sections
)

// header carries the structural parameters a snapshot was taken under. A
// restore target must match them exactly; execution mode (shards, lanes,
// always-active) and instrumentation may differ freely.
type header struct {
	width, height int
	concentration int
	arch          router.Arch
	bufferDepth   int
	sinkDepth     int
}

func headerOf(cfg network.Config) header {
	return header{
		width:         cfg.Topo.Width,
		height:        cfg.Topo.Height,
		concentration: cfg.Concentration,
		arch:          cfg.Arch,
		bufferDepth:   cfg.BufferDepth,
		sinkDepth:     cfg.SinkDepth,
	}
}

// apply forces the header's structural parameters onto a restore
// configuration, so the rebuilt network matches the image by construction.
func (h header) apply(cfg *network.Config) {
	cfg.Topo = noc.Topology{Width: h.width, Height: h.height}
	cfg.Concentration = h.concentration
	cfg.Arch = h.arch
	cfg.BufferDepth = h.bufferDepth
	cfg.SinkDepth = h.sinkDepth
}

func writeHeader(e *codec.Encoder, h header) {
	e.U64(magic)
	e.U64(version)
	e.Int(h.width)
	e.Int(h.height)
	e.Int(h.concentration)
	e.Int(int(h.arch))
	e.Int(h.bufferDepth)
	e.Int(h.sinkDepth)
}

func readHeader(d *codec.Decoder) (header, error) {
	var h header
	if m := d.U64(); d.Err() == nil && m != magic {
		return h, fmt.Errorf("%w: bad magic %#x", codec.ErrCorrupt, m)
	}
	if v := d.U64(); d.Err() == nil && v != version {
		return h, fmt.Errorf("%w: snapshot version %d, this build reads %d", codec.ErrVersion, v, version)
	}
	h.width = d.Int()
	h.height = d.Int()
	h.concentration = d.Int()
	h.arch = router.Arch(d.Int())
	h.bufferDepth = d.Int()
	h.sinkDepth = d.Int()
	if err := d.Err(); err != nil {
		return h, err
	}
	if h.width < 1 || h.width > 1024 || h.height < 1 || h.height > 1024 {
		return h, fmt.Errorf("%w: %dx%d topology", codec.ErrCorrupt, h.width, h.height)
	}
	if h.concentration < 1 || h.concentration > 64 {
		return h, fmt.Errorf("%w: concentration %d", codec.ErrCorrupt, h.concentration)
	}
	if h.arch < router.NonSpec || h.arch > router.NoX {
		return h, fmt.Errorf("%w: architecture %d", codec.ErrCorrupt, int(h.arch))
	}
	if h.bufferDepth < 1 || h.bufferDepth > 1024 || h.sinkDepth < 2 || h.sinkDepth > 4096 {
		return h, fmt.Errorf("%w: buffer depth %d / sink depth %d", codec.ErrCorrupt, h.bufferDepth, h.sinkDepth)
	}
	return h, nil
}

// Encode serializes the network to a snapshot image. Only call between
// steps. Networks with non-serializable pieces (a custom arbiter or traffic
// process) fail with codec.ErrUnsupported.
func Encode(net *network.Network) ([]byte, error) {
	e := codec.NewEncoder()
	writeHeader(e, headerOf(net.Config()))
	if err := net.SaveState(e); err != nil {
		return nil, err
	}
	return e.Bytes(), nil
}

// Decode rebuilds a ready-to-step network from a snapshot image. cfg
// supplies everything the image does not carry — execution mode and the
// instrumentation wiring (Probe, Check, Fault, Observer, NewArbiter) — while
// its structural fields are overwritten from the image's header. The
// checker-armed state must match the image (see network.RestoreState).
// Malformed images fail with a typed codec error; they never panic.
func Decode(data []byte, cfg network.Config) (*network.Network, error) {
	d := codec.NewDecoder(data)
	h, err := readHeader(d)
	if err != nil {
		return nil, err
	}
	h.apply(&cfg)
	net, err := network.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", codec.ErrCorrupt, err)
	}
	if err := restoreInto(net, d); err != nil {
		net.Close()
		return nil, err
	}
	return net, nil
}

// DecodeInto restores a snapshot image into an already constructed network,
// which must have been built with the image's structural parameters (the
// header is checked against net.Config()). The harness uses this to restore
// warm images into networks whose execution-mode wiring it has already
// arranged.
func DecodeInto(data []byte, net *network.Network) error {
	d := codec.NewDecoder(data)
	h, err := readHeader(d)
	if err != nil {
		return err
	}
	if got := headerOf(net.Config()); got != h {
		return fmt.Errorf("%w: snapshot %+v does not match target network %+v", codec.ErrUnsupported, h, got)
	}
	return restoreInto(net, d)
}

func restoreInto(net *network.Network, d *codec.Decoder) error {
	if err := net.RestoreState(d); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after network state", codec.ErrCorrupt, d.Remaining())
	}
	return nil
}

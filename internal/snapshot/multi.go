package snapshot

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/noc"
	"repro/internal/router"
	"repro/internal/snapshot/codec"
)

// Multi-network snapshots serialize a lockstep multi-class network (the app
// harness's request/reply pair) as one image: the shared header followed by
// the class count and each class network's state in class order. All classes
// of a network.Multi share one structural configuration, so one header
// covers them. A checker shared across classes serializes its full ledger
// once per class; RestoreLedger overwrites rather than merges, so the
// repeated restore is idempotent and the final state is exact.

// EncodeMulti serializes every class of a lockstep multi-network to one
// snapshot image. Only call between steps.
func EncodeMulti(m *network.Multi) ([]byte, error) {
	e := codec.NewEncoder()
	writeHeader(e, headerOf(m.Net(0).Config()))
	e.Int(m.Classes())
	for class := 0; class < m.Classes(); class++ {
		if err := m.Net(class).SaveState(e); err != nil {
			return nil, fmt.Errorf("class %d: %w", class, err)
		}
	}
	return e.Bytes(), nil
}

// DecodeMultiInto restores a multi-network image into an already
// constructed Multi with the same class count and structural configuration.
// On success every class stands at the saved cycle, ready to step.
func DecodeMultiInto(data []byte, m *network.Multi) error {
	d := codec.NewDecoder(data)
	h, err := readHeader(d)
	if err != nil {
		return err
	}
	if got := headerOf(m.Net(0).Config()); got != h {
		return fmt.Errorf("%w: snapshot %+v does not match target network %+v", codec.ErrUnsupported, h, got)
	}
	classes := d.Len(64)
	if err := d.Err(); err != nil {
		return err
	}
	if classes != m.Classes() {
		return fmt.Errorf("%w: snapshot has %d classes, target has %d", codec.ErrUnsupported, classes, m.Classes())
	}
	for class := 0; class < classes; class++ {
		if err := m.Net(class).RestoreState(d); err != nil {
			return fmt.Errorf("class %d: %w", class, err)
		}
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after network state", codec.ErrCorrupt, d.Remaining())
	}
	return nil
}

// Info is a snapshot's structural header in exported form, so a tool can
// check an image before it restores it.
type Info struct {
	Topo          noc.Topology
	Concentration int
	Arch          router.Arch
	BufferDepth   int
	SinkDepth     int
}

// Inspect parses and validates an image's header without restoring it.
func Inspect(data []byte) (Info, error) {
	h, err := readHeader(codec.NewDecoder(data))
	if err != nil {
		return Info{}, err
	}
	return Info{
		Topo:          noc.Topology{Width: h.width, Height: h.height},
		Concentration: h.concentration,
		Arch:          h.arch,
		BufferDepth:   h.bufferDepth,
		SinkDepth:     h.sinkDepth,
	}, nil
}

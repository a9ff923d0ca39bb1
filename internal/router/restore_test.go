package router

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/routing"
	"repro/internal/snapshot/codec"
)

// cornerRouter builds the router at node 0 of a 3x3 mesh, wired the way the
// network wires a corner: East, South and Local have links, North and West
// have none.
func cornerRouter(arch Arch) Router {
	r := New(Config{Arch: arch, Node: 0, Routes: routing.NewTable(noc.Topology{Width: 3, Height: 3}), Counters: &power.Counters{}})
	for _, p := range []noc.Port{noc.East, noc.South, noc.Local} {
		r.SetInputLink(p, noc.NewLink(r.InputReceiver(p), 4))
		r.SetOutputLink(p, noc.NewLink(&recorder{}, 4))
	}
	return r
}

// TestRestoreRejectsUndrivablePort is the regression test for the restore
// path's open bug: an image whose buffered flit names, in range for the
// codec, an output this router has no link on (or no port for) used to be
// accepted and panic at the first Step. RestoreState must refuse it with
// ErrCorrupt, and a clean image must still restore to exact masks.
func TestRestoreRejectsUndrivablePort(t *testing.T) {
	for _, arch := range Archs {
		for _, out := range []noc.Port{noc.East, noc.West, noc.North, 7, 31} {
			src := cornerRouter(arch)
			f := noc.NewFlit(noc.NewPacket(1, 0, 2, 1, 0, 0), 0) // 0 -> 2 leaves node 0 East
			src.InputReceiver(noc.Local).Receive(f, 0)
			f.OutPort = out // a baseline FIFO holds this object: rewrite the lookahead in place
			e := codec.NewEncoder()
			if err := src.SaveState(e); err != nil {
				t.Fatal(err)
			}
			if arch == NoX && out != noc.East {
				// A NoX input port keeps the lookahead in its header mirror
				// and writes it into the flit as it saves: the image naming
				// out is that of ports which routed the flit there.
				e = codec.NewEncoder()
				for p := noc.Port(0); p < noc.NumPorts; p++ {
					in := core.NewInputPort(4, []noc.Port{out, out, out})
					if p == noc.Local {
						in.Receive(f)
					}
					in.SaveState(e)
				}
				for p := noc.Port(0); p < noc.NumPorts; p++ {
					if err := core.NewOutputControl(int(noc.NumPorts), nil).SaveState(e); err != nil {
						t.Fatal(err)
					}
				}
			}
			dst := cornerRouter(arch)
			err := dst.RestoreState(codec.NewDecoder(e.Bytes()))
			if out == noc.East {
				if err != nil {
					t.Errorf("%s: clean image refused: %v", arch, err)
				} else if err := dst.Audit(); err != nil {
					t.Errorf("%s: masks after restore: %v", arch, err)
				} else if dst.Quiet() {
					t.Errorf("%s: restored router holding a flit reports Quiet", arch)
				} else {
					dst.Compute(1) // must not panic
					dst.Commit(1)
				}
				continue
			}
			if !errors.Is(err, codec.ErrCorrupt) {
				t.Errorf("%s: flit routed to output %d restored with error %v, want ErrCorrupt", arch, out, err)
			}
		}
	}
}

// TestRestoreRejectsEncodedInBaseline: only NoX buffers superpositions.
func TestRestoreRejectsEncodedInBaseline(t *testing.T) {
	enc := noc.Encode([]*noc.Flit{single(1), single(2)})
	enc.OutPort = noc.East
	for _, arch := range []Arch{NonSpec, SpecFast, SpecAccurate} {
		e := codec.NewEncoder()
		e.Int(1)
		e.Flit(enc)
		if err := cornerRouter(arch).RestoreState(codec.NewDecoder(e.Bytes())); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("%s: encoded flit in a FIFO restored with error %v, want ErrCorrupt", arch, err)
		}
	}
}

package snapshot_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/check"
	"repro/internal/network"
	"repro/internal/noc"
	"repro/internal/router"
	"repro/internal/snapshot"
	"repro/internal/snapshot/codec"
)

// typedSnapshotErr reports whether err is one of the decoder's documented
// failure classes. The decoder's contract is that arbitrary input either
// parses or fails with one of these — never a panic, never an anonymous
// error.
func typedSnapshotErr(err error) bool {
	return errors.Is(err, codec.ErrTruncated) || errors.Is(err, codec.ErrCorrupt) ||
		errors.Is(err, codec.ErrVersion) || errors.Is(err, codec.ErrUnsupported)
}

// seedImage encodes a small loaded network of the given architecture — a
// valid image to mutate from — with or without an invariant checker armed
// (the image records which, and restores only into a matching network).
func seedImage(tb testing.TB, arch router.Arch, armed bool) []byte {
	cfg := network.Config{Topo: noc.Topology{Width: 2, Height: 2}, Arch: arch, Shards: 1}
	if armed {
		cfg.Check = check.New(check.All())
	}
	net := network.New(cfg)
	defer net.Close()
	plan := makeSchedule(0xF022, cfg.Topo.Nodes(), 2, 40)
	for c := 0; c < 40; c++ {
		for _, s := range plan[c] {
			net.Inject(s.src, s.dst, s.length, 0)
		}
		net.Step()
	}
	img, err := snapshot.Encode(net)
	if err != nil {
		tb.Fatalf("seed encode: %v", err)
	}
	return img
}

// decodeHostile restores an untrusted image the way it must be restored:
// into a network with the invariant checker armed, so that what validation
// cannot see — a payload word that no longer matches its packet, a flit
// parked on the wrong tile, a wormhole missing its head — is reported by the
// checker when the network reaches it instead of tripping a strict-mode
// integrity panic (which, for an image the simulator wrote itself, is the
// right response: a simulator bug). An image saved without a checker
// restores only into an unchecked network; armed reports which one it got.
func decodeHostile(data []byte) (net *network.Network, armed bool, err error) {
	net, err = snapshot.Decode(data, network.Config{Shards: 1, Check: check.New(check.All())})
	if err == nil {
		return net, true, nil
	}
	net, err = snapshot.Decode(data, network.Config{Shards: 1})
	return net, false, err
}

// restoredSteps is how long FuzzDecode runs a network it restored: long
// enough for every buffered flit to cross the 2x2 seed mesh and eject.
const restoredSteps = 50

// FuzzDecode throws arbitrary bytes at the snapshot decoder. The contract
// under fuzz: Decode never panics and never returns an untyped error; when
// it succeeds, re-encoding is a fixed point (encode∘decode is stable byte
// for byte), and a network restored checker-armed (see
// decodeHostile) runs: restoredSteps cycles without a panic — restore-time
// validation owes the first Step a state the routers can evaluate (lookahead
// ports that exist and are wired, superpositions only where NoX decodes
// them, control masks that fit their mode, packets between cores that
// exist).
func FuzzDecode(f *testing.F) {
	seed := seedImage(f, router.NoX, false)
	f.Add(seed)
	for _, arch := range router.Archs {
		f.Add(seedImage(f, arch, true))
	}
	f.Add([]byte{})
	f.Add(seed[:1])
	f.Add(seed[:8])
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:len(seed)-1])
	f.Add(append(append([]byte{}, seed...), 0)) // trailing byte
	e := codec.NewEncoder()
	e.U64(0x4e4f585350415031) // the snapshot magic
	e.U64(99)                 // a future version
	f.Add(e.Bytes())
	bad := append([]byte{}, seed...)
	bad[0] ^= 0xFF // bad magic
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		// A parsable header can still describe an enormous topology the
		// validator accepts (up to 1024x1024x64); building it would OOM the
		// fuzzer, so bound the work before the full decode.
		if cores, depth, sink, err := snapshot.HeaderSize(data); err == nil && (cores > 256 || depth > 64 || sink > 512) {
			return
		}

		net, armed, err := decodeHostile(data)
		if err != nil {
			if !typedSnapshotErr(err) {
				t.Fatalf("Decode returned an untyped error: %v", err)
			}
			return
		}
		defer net.Close()

		// A decoded network must be steppable and must re-encode stably.
		img, err := snapshot.Encode(net)
		if err != nil {
			t.Fatalf("re-encode of a decoded network failed: %v", err)
		}
		net2, _, err := decodeHostile(img)
		if err != nil {
			t.Fatalf("decode of a re-encoded image failed: %v", err)
		}
		defer net2.Close()
		img2, err := snapshot.Encode(net2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(img, img2) {
			t.Fatalf("encode∘decode is not a fixed point: %d vs %d bytes", len(img), len(img2))
		}
		if !armed {
			return
		}
		for i := 0; i < restoredSteps; i++ {
			net.Step()
		}
	})
}

// TestRestoredMutantsRun is the systematic half of FuzzDecode's last clause,
// which coverage-guided mutation reaches only by luck: every single-bit flip
// (and the inversion) of every byte of a valid checker-armed image, for each
// architecture, either fails to restore with a typed error or restores into
// a network that runs restoredSteps cycles without a panic. Most accepted
// mutants are semantically wrong (a flipped payload bit, a packet re-homed
// to another tile, a lock naming another input), which is the point.
func TestRestoredMutantsRun(t *testing.T) {
	for _, arch := range router.Archs {
		img := seedImage(t, arch, true)
		accepted := 0
		for pos := range img {
			for _, flip := range []byte{0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xFF} {
				mut := append([]byte(nil), img...)
				mut[pos] ^= flip
				net, _, err := decodeHostile(mut)
				if err != nil {
					if !typedSnapshotErr(err) {
						t.Fatalf("%s: byte %d ^ %#x: untyped error %v", arch, pos, flip, err)
					}
					continue
				}
				accepted++
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s: byte %d ^ %#x restored and then panicked: %v", arch, pos, flip, r)
						}
					}()
					defer net.Close()
					for i := 0; i < restoredSteps; i++ {
						net.Step()
					}
				}()
			}
		}
		t.Logf("%s: %d-byte image, %d mutants restored and ran", arch, len(img), accepted)
		if accepted == 0 {
			t.Errorf("%s: no mutant was accepted: the test exercises nothing", arch)
		}
	}
}

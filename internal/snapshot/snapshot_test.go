package snapshot_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/check"
	"repro/internal/network"
	"repro/internal/noc"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/snapshot/codec"
)

// schedule is a precomputed injection plan: the same traffic can be replayed
// into the original network and any restored copy.
type schedule struct {
	src, dst noc.NodeID
	length   int
}

func makeSchedule(seed uint64, cores, perCycle, cycles int) [][]schedule {
	rng := sim.NewRNG(seed)
	plan := make([][]schedule, cycles)
	for c := range plan {
		for k := 0; k < perCycle; k++ {
			src := noc.NodeID(rng.Intn(cores))
			dst := noc.NodeID(rng.Intn(cores))
			if src == dst {
				continue
			}
			length := 1 + int(rng.Intn(4))
			plan[c] = append(plan[c], schedule{src, dst, length})
		}
	}
	return plan
}

// drive replays plan[from:to) into the network, one Step per cycle.
func drive(net *network.Network, plan [][]schedule, from, to int) {
	for c := from; c < to; c++ {
		for _, s := range plan[c] {
			net.Inject(s.src, s.dst, s.length, 0)
		}
		net.Step()
	}
}

func encodeOrFatal(t *testing.T, net *network.Network) []byte {
	t.Helper()
	img, err := snapshot.Encode(net)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return img
}

// TestRoundTripDeterministic pins the tentpole invariant for every
// architecture: saving a loaded 8x8 network twice yields identical bytes,
// restoring and re-saving yields those same bytes, and the restored copy
// evolves bit-identically to the original from the checkpoint on.
func TestRoundTripDeterministic(t *testing.T) {
	const warm, total = 300, 600
	plan := makeSchedule(0xA11CE, 64, 6, total)
	for _, arch := range router.Archs {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			t.Parallel()
			cfg := network.Config{Arch: arch, Shards: 1}
			net := network.New(cfg)
			defer net.Close()
			drive(net, plan, 0, warm)

			img := encodeOrFatal(t, net)
			if again := encodeOrFatal(t, net); !bytes.Equal(img, again) {
				t.Fatalf("two saves of the same network differ (%d vs %d bytes)", len(img), len(again))
			}
			restored, err := snapshot.Decode(img, cfg)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			defer restored.Close()
			if got := encodeOrFatal(t, restored); !bytes.Equal(img, got) {
				t.Fatalf("restored network re-saves differently (%d vs %d bytes)", len(img), len(got))
			}
			if restored.Cycle() != net.Cycle() {
				t.Fatalf("restored cycle %d, want %d", restored.Cycle(), net.Cycle())
			}

			// Both copies must evolve identically from the checkpoint on.
			drive(net, plan, warm, total)
			drive(restored, plan, warm, total)
			if !net.Drain(30000) || !restored.Drain(30000) {
				t.Fatalf("drain failed: original outstanding %d, restored %d", net.Outstanding(), restored.Outstanding())
			}
			a, b := encodeOrFatal(t, net), encodeOrFatal(t, restored)
			if !bytes.Equal(a, b) {
				t.Fatalf("original and restored diverged after %d more cycles", total-warm)
			}
			if ao, ro := net.ArenaOutstanding(), restored.ArenaOutstanding(); ao != 0 || ro != 0 {
				t.Fatalf("arena leak after drain: original %d, restored %d", ao, ro)
			}
		})
	}
}

// TestRestoreAcrossShards pins snapshot portability across execution modes:
// an image from a serial run restores into a sharded network and evolves to
// the same final state.
func TestRestoreAcrossShards(t *testing.T) {
	const warm, total = 250, 500
	plan := makeSchedule(0xBEEF, 64, 6, total)
	cfg := network.Config{Arch: router.NoX, Shards: 1}
	net := network.New(cfg)
	defer net.Close()
	drive(net, plan, 0, warm)
	img := encodeOrFatal(t, net)

	serial, err := snapshot.Decode(img, network.Config{Shards: 1})
	if err != nil {
		t.Fatalf("serial Decode: %v", err)
	}
	defer serial.Close()
	sharded, err := snapshot.Decode(img, network.Config{Shards: 4})
	if err != nil {
		t.Fatalf("sharded Decode: %v", err)
	}
	defer sharded.Close()
	if got := sharded.Shards(); got != 4 {
		t.Fatalf("restored with %d shards, want 4", got)
	}
	drive(serial, plan, warm, total)
	drive(sharded, plan, warm, total)
	serial.Drain(30000)
	sharded.Drain(30000)
	if a, b := encodeOrFatal(t, serial), encodeOrFatal(t, sharded); !bytes.Equal(a, b) {
		t.Fatal("serial and 4-shard continuations diverged from the same snapshot")
	}
}

// TestCheckerLedgerTravels pins that an armed checker's oracle state is part
// of the image: the restored run's finalize sees every in-flight packet the
// original had, so post-drain reports match.
func TestCheckerLedgerTravels(t *testing.T) {
	const warm = 200
	plan := makeSchedule(0xC0FFEE, 64, 6, warm)
	cfg := network.Config{Arch: router.NoX, Shards: 1, Check: check.New(check.Config{})}
	net := network.New(cfg)
	defer net.Close()
	drive(net, plan, 0, warm)
	img := encodeOrFatal(t, net)

	// Restoring into an unchecked network must fail loudly, not drop state.
	if _, err := snapshot.Decode(img, network.Config{Shards: 1}); !errors.Is(err, codec.ErrUnsupported) {
		t.Fatalf("checker-armed image into unchecked network: err = %v, want ErrUnsupported", err)
	}

	ck := check.New(check.Config{})
	rcfg := cfg
	rcfg.Check = ck
	restored, err := snapshot.Decode(img, rcfg)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	defer restored.Close()
	if got := encodeOrFatal(t, restored); !bytes.Equal(img, got) {
		t.Fatal("checker-armed image did not re-save identically")
	}
	if !restored.Drain(30000) {
		t.Fatalf("restored network did not drain (%d outstanding)", restored.Outstanding())
	}
	restored.CheckInvariants()
	if ck.Total() != 0 {
		var buf bytes.Buffer
		ck.WriteReport(&buf)
		t.Fatalf("restored checked run reported violations:\n%s", buf.String())
	}
}

// TestDecodeRejectsStructuralMismatch ensures the restore configuration
// cannot silently override the image's structural parameters.
func TestDecodeRejectsMalformed(t *testing.T) {
	net := network.New(network.Config{Arch: router.NoX, Shards: 1})
	defer net.Close()
	plan := makeSchedule(1, 64, 4, 100)
	drive(net, plan, 0, 100)
	img := encodeOrFatal(t, net)

	if _, err := snapshot.Decode(nil, network.Config{}); err == nil {
		t.Fatal("Decode(nil) succeeded")
	}
	for _, cut := range []int{1, len(img) / 2, len(img) - 1} {
		if _, err := snapshot.Decode(img[:cut], network.Config{}); err == nil {
			t.Fatalf("Decode of %d/%d-byte truncation succeeded", cut, len(img))
		}
	}
	if _, err := snapshot.Decode(append(append([]byte(nil), img...), 0), network.Config{}); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("trailing byte: err = %v, want ErrCorrupt", err)
	}
	bad := append([]byte(nil), img...)
	bad[0] ^= 0xFF
	if _, err := snapshot.Decode(bad, network.Config{}); err == nil {
		t.Fatal("Decode with corrupt magic succeeded")
	}
	// A header naming sink depth 1, a depth network.Config.Validate refuses,
	// is corrupt: rewrite the last header field and keep the body.
	d := codec.NewDecoder(img)
	e := codec.NewEncoder()
	e.U64(d.U64()) // magic
	e.U64(d.U64()) // version
	// width, height, concentration, arch, buffer depth
	for i := 0; i < 5; i++ {
		e.Int(d.Int())
	}
	d.Int() // sink depth
	e.Int(1)
	hostile := append(e.Bytes(), img[len(img)-d.Remaining():]...)
	if _, err := snapshot.Decode(hostile, network.Config{}); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("sink depth 1: err = %v, want ErrCorrupt", err)
	}
}

// TestParentImagesRestore pins the format across the packet slab: the images
// under testdata/parent were written by the commit before packets moved onto
// a per-network slab (5c7dc9a; a 3x3 mesh, 120 cycles of 1- and 9-flit
// traffic, one image per architecture). Free slots are not state, so nothing
// about the format moved: each image restores, re-encodes to the bytes it was
// read from, holds no reference to a recycled slot, and drains to the cycle,
// delivery count and delivery digest the parent's own restore reaches. `make
// snapshot-smoke` runs this under the race detector.
func TestParentImagesRestore(t *testing.T) {
	for name, want := range map[string]struct {
		cycle, delivered, digest int64
	}{
		"nonspec":  {234, 303, 4375114678039694390},
		"specfast": {320, 316, -2141806674165284008},
		"specacc":  {227, 318, 7745182881594344125},
		"nox":      {217, 344, -4952545249540429693},
	} {
		for _, shards := range []int{1, 2} {
			img, err := os.ReadFile(filepath.Join("testdata", "parent", name+".noxsnap"))
			if err != nil {
				t.Fatal(err)
			}
			net, err := snapshot.Decode(img, network.Config{Shards: shards})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if again := encodeOrFatal(t, net); !bytes.Equal(again, img) {
				t.Errorf("%s: re-encoding the parent's image gives %d bytes that differ from its %d", name, len(again), len(img))
			}
			var digest int64
			net.OnDeliver = func(p *noc.Packet, cycle int64) { digest = digest*31 + int64(p.ID)*cycle }
			for net.Outstanding() > 0 && net.Cycle() < 10000 {
				net.Step()
				if err := net.Audit(); err != nil {
					t.Fatalf("%s, shards=%d, cycle %d: %v", name, shards, net.Cycle(), err)
				}
			}
			if net.Cycle() != want.cycle || net.Delivered() != want.delivered || digest != want.digest {
				t.Errorf("%s, shards=%d: drained at cycle %d with %d delivered, digest %d; the parent reaches %d, %d, %d",
					name, shards, net.Cycle(), net.Delivered(), digest, want.cycle, want.delivered, want.digest)
			}
			net.Close()
		}
	}
}

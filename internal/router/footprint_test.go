package router_test

import (
	"testing"
	"unsafe"

	"repro/internal/buffer"
	"repro/internal/network"
	"repro/internal/noc"
	"repro/internal/router"
)

// TestTileFootprint prints and bounds the bytes of state one tile touches per
// cycle: the router's struct, port records and FIFO rings, the channels the
// tile latches (the router's five inputs and the interface's ejection
// channel), and the network interface with its sink ring. The figures are for
// the paper's tile — a 5-port mesh router, 4-deep buffers, one core, 16-deep
// sink. headBytes is the same sum taken on the tree before the per-port
// records (slice-per-field routers, 112-byte links, 304-byte interface); the
// bound is the issue's: at least 30 % below it for every architecture.
func TestTileFootprint(t *testing.T) {
	const ports, depth, sinkDepth = int(noc.NumPorts), 4, 16
	headBytes := map[router.Arch]int{router.NonSpec: 2297, router.SpecFast: 2633, router.SpecAccurate: 2633, router.NoX: 3493}
	shared := (ports+1)*int(unsafe.Sizeof(noc.Link{})) + int(unsafe.Sizeof(network.NI{})) +
		buffer.SlotsFor(sinkDepth)*int(unsafe.Sizeof((*noc.Flit)(nil)))
	t.Logf("link %d B, interface %d B, router-independent part of a tile %d B",
		unsafe.Sizeof(noc.Link{}), unsafe.Sizeof(network.NI{}), shared)
	for _, arch := range router.Archs {
		rt := router.RecordBytes(arch, ports, depth)
		tile, head := rt+shared, headBytes[arch]
		t.Logf("%-16s router %4d B + shared %d B = tile %4d B (before: %d B, %+.0f %%)",
			arch, rt, shared, tile, head, 100*float64(tile-head)/float64(head))
		if 10*tile > 7*head {
			t.Errorf("%s: tile footprint %d B is not 30 %% below the %d B of the slice-per-field layout", arch, tile, head)
		}
	}
}

package router

import (
	"unsafe"

	"repro/internal/buffer"
)

// RecordBytes returns the bytes of per-cycle-touched router state of one
// router of the given architecture and radix: its own struct, its per-port
// records and the FIFO rings behind them. For TestTileFootprint.
func RecordBytes(arch Arch, ports, depth int) int {
	rings := ports * buffer.SlotsFor(depth) * int(unsafe.Sizeof((*byte)(nil)))
	in := int(unsafe.Sizeof(inPort{}))
	switch arch {
	case NonSpec:
		return int(unsafe.Sizeof(nonspecRouter{})) + ports*(in+int(unsafe.Sizeof(nsPort{}))) + rings
	case SpecFast, SpecAccurate:
		return int(unsafe.Sizeof(specRouter{})) + ports*(in+int(unsafe.Sizeof(specPort{}))) + rings
	default:
		return int(unsafe.Sizeof(noxRouter{})) + ports*int(unsafe.Sizeof(noxPort{})) + rings
	}
}

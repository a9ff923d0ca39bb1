package router

import (
	"unsafe"

	"repro/internal/buffer"
	"repro/internal/noc"
)

// RecordBytes returns the bytes of per-cycle-touched router state of one
// router of the given architecture and radix: its own struct, its per-port
// records and the FIFO rings behind them, with a NoX port's header mirror
// beside its ring. For TestTileFootprint.
func RecordBytes(arch Arch, ports, depth int) int {
	rings := ports * buffer.SlotsFor(depth) * int(unsafe.Sizeof((*byte)(nil)))
	mirrors := ports * buffer.SlotsFor(depth) * int(unsafe.Sizeof(noc.Header(0)))
	in := int(unsafe.Sizeof(inPort{}))
	switch arch {
	case NonSpec:
		return int(unsafe.Sizeof(nonspecRouter{})) + ports*(in+int(unsafe.Sizeof(nsPort{}))) + rings
	case SpecFast, SpecAccurate:
		return int(unsafe.Sizeof(specRouter{})) + ports*(in+int(unsafe.Sizeof(specPort{}))) + rings
	default:
		return int(unsafe.Sizeof(noxRouter{})) + ports*int(unsafe.Sizeof(noxPort{})) + rings + mirrors
	}
}

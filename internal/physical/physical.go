// Package physical reproduces the paper's physical-implementation results
// (§6): the analytical critical-path model behind Table 2's clock periods
// and the floorplan model behind Figure 13's area comparison.
//
// The paper obtained these numbers from Synopsys Design Compiler synthesis
// in TSMC 65 nm plus memory-compiler SRAM extraction and manual
// floorplanning — none of which can run here. The substitution (documented
// in DESIGN.md) keeps the same structure: component delays published in the
// paper (248 ps SRAM read, 98 ps channel, ~40 ps decode overhead) compose
// per-architecture critical paths whose totals are Table 2's periods, and
// the performance simulator consumes only those periods, exactly as the
// paper's C++ simulator did.
package physical

import "repro/internal/router"

// Component delays in picoseconds, 65 nm. SRAM and link values are stated
// in §6.1; the remaining values are the unique decomposition consistent
// with Table 2 and the paper's qualitative statements (arbitration is the
// serialized control step of the non-speculative router; Spec-Accurate
// pays for its more accurate Switch-Next logic; NoX pays the ~40 ps decode
// plus the XOR switch's extra logical effort, §2.5).
const (
	// SRAMReadPs is the input buffer SRAM read delay (248 ps, §6.1).
	SRAMReadPs = 248.0
	// LinkPs is the 2 mm inter-tile channel delay (98 ps, §6.1).
	LinkPs = 98.0
	// SwitchArbPs is the switch arbitration delay serialized ahead of
	// traversal in the non-speculative router.
	SwitchArbPs = 230.0
	// XbarMuxPs is the multiplexer crossbar traversal delay, including the
	// time-critical select distribution across the fabric.
	XbarMuxPs = 344.0
	// XbarXORPs is the XOR-fabric traversal delay: the higher logical
	// effort of XOR gates costs ~30 ps over the mux crossbar, partially
	// offset by locally computed inhibition masks (§2.5).
	XbarXORPs = 374.0
	// SwitchNextPs is Spec-Accurate's extra Switch-Next filtering logic
	// relative to Spec-Fast's pass-through allocator.
	SwitchNextPs = 30.0
	// DecodePs is the NoX input decode overhead: one level of 2-input XOR
	// gates plus register mux (§6.1: "decoding logic in the NoX
	// architecture incurs approximately 40ps of overhead").
	DecodePs = 40.0
)

// ClockPeriodPs returns the architecture's clock period in picoseconds as
// the sum of its critical-path components on the baseline mesh tile.
func ClockPeriodPs(a router.Arch) float64 { return MeshDatapath().ClockPeriodPs(a) }

// ClockPeriodNs returns the clock period in nanoseconds (Table 2 units).
func ClockPeriodNs(a router.Arch) float64 { return ClockPeriodPs(a) / 1000 }

// FrequencyGHz returns the maximum operating frequency.
func FrequencyGHz(a router.Arch) float64 { return 1000 / ClockPeriodPs(a) }

// SpeedupVsNonSpec returns how much faster the architecture's clock is than
// the non-speculative baseline (§6.1 reports 33.3 %, 27.8 %, 21.1 %).
func SpeedupVsNonSpec(a router.Arch) float64 {
	return ClockPeriodPs(router.NonSpec)/ClockPeriodPs(a) - 1
}

// Floorplan dimensions (Figure 13), 65 nm. The layout follows Balfour &
// Dally's tiled-router plan: per-port input SRAMs stacked horizontally
// (bit-interleaved), the crossbar row beneath them with height set by the
// standard cell height and width by wire spacing; allocation, abort, and
// route-computation logic fits in the unused upper-left corner and does not
// grow the tile.
const (
	// CellHeightUm is the standard cell row height (§6.2: 2.52 um).
	CellHeightUm = 2.52
	// SRAMBlockWidthUm and SRAMBlockHeightUm are the memory-compiler
	// dimensions of one port's 4x64 b bit-interleaved input buffer.
	SRAMBlockWidthUm  = 163.95
	SRAMBlockHeightUm = 25.9
	// XbarWireRows is the number of standard-cell rows the crossbar and
	// its wiring occupy.
	XbarWireRows = 5
	// DecodeMaskWidthUm is the extra horizontal length of the NoX tile for
	// decode registers, XOR decode, and masking logic (§6.2: 28.2 um).
	DecodeMaskWidthUm = 28.2
)

// Plan is a router tile floorplan.
type Plan struct {
	Arch     router.Arch
	WidthUm  float64
	HeightUm float64
}

// AreaUm2 returns the tile area.
func (p Plan) AreaUm2() float64 { return p.WidthUm * p.HeightUm }

// Floorplan returns the tile plan of Figure 13 for the architecture. The
// conventional plan serves the non-speculative and both speculative
// routers (their control-logic differences hide in the spare corner); NoX
// adds the decode/mask column.
func Floorplan(a router.Arch) Plan {
	height := 5*SRAMBlockHeightUm + XbarWireRows*CellHeightUm
	width := SRAMBlockWidthUm
	if a == router.NoX {
		width += DecodeMaskWidthUm
	}
	return Plan{Arch: a, WidthUm: width, HeightUm: height}
}

// AreaOverheadVsConventional returns the NoX tile's area penalty relative
// to the conventional plan (§6.2 reports 17.2 %).
func AreaOverheadVsConventional() float64 {
	return Floorplan(router.NoX).AreaUm2()/Floorplan(router.NonSpec).AreaUm2() - 1
}

package physical

import "repro/internal/router"

// This file models the physical consequences of the paper's future-work
// proposal (§8): evaluating NoX on a higher-radix concentrated mesh, which
// "may derive more benefit given their higher arbitration latencies, their
// longer channels, and the fixed cost of the NoX decoding hardware."
//
// Datapath describes one implementation point's component delays; the
// architecture critical paths compose them in Datapath.ClockPeriodPs, and
// the baseline mesh's ClockPeriodPs is that composition on MeshDatapath.
type Datapath struct {
	// SRAMReadPs is the input-buffer read delay.
	SRAMReadPs float64
	// LinkPs is the inter-router channel delay.
	LinkPs float64
	// SwitchArbPs is the arbitration delay serialized in the
	// non-speculative router; it grows with radix.
	SwitchArbPs float64
	// XbarMuxPs / XbarXORPs are the crossbar traversal delays; both grow
	// with radix (wider fabric, longer select/inhibit wires).
	XbarMuxPs float64
	XbarXORPs float64
	// SwitchNextPs is Spec-Accurate's extra allocator filtering.
	SwitchNextPs float64
	// DecodePs is the NoX input decode overhead — one level of 2-input XOR
	// gates plus a register mux, independent of radix: the "fixed cost"
	// §8 highlights.
	DecodePs float64
}

// MeshDatapath returns the baseline 8x8 mesh point (Table 2's inputs).
func MeshDatapath() Datapath {
	return Datapath{
		SRAMReadPs:   SRAMReadPs,
		LinkPs:       LinkPs,
		SwitchArbPs:  SwitchArbPs,
		XbarMuxPs:    XbarMuxPs,
		XbarXORPs:    XbarXORPs,
		SwitchNextPs: SwitchNextPs,
		DecodePs:     DecodePs,
	}
}

// CMeshDatapath returns the 4x4 concentrated mesh point (radix-8 routers,
// 64 cores). Scaling relative to the mesh:
//   - Channels double to 4 mm (half the routers tile the same die), so the
//     repeated-wire delay doubles.
//   - The arbiter sees 8 requesters instead of 5 (~log-depth growth) and
//     the 8x8 crossbar's select/inhibit distribution lengthens: both scale
//     by ~radix ratio in this first-order model.
//   - Spec-Accurate's Switch-Next filter widens with the request vector.
//   - The NoX decode stage is unchanged: still one 2-input XOR level.
func CMeshDatapath() Datapath {
	const radixScale = 1.45 // 8-input vs 5-input control structures
	return Datapath{
		SRAMReadPs:   SRAMReadPs,
		LinkPs:       2 * LinkPs,
		SwitchArbPs:  SwitchArbPs * radixScale,
		XbarMuxPs:    XbarMuxPs * radixScale,
		XbarXORPs:    XbarXORPs * radixScale,
		SwitchNextPs: SwitchNextPs * radixScale,
		DecodePs:     DecodePs, // fixed cost (§8)
	}
}

// ClockPeriodPs composes the architecture's critical path on this
// datapath.
func (d Datapath) ClockPeriodPs(a router.Arch) float64 {
	switch a {
	case router.NonSpec:
		// Arbitrate, then traverse, within one cycle.
		return d.SRAMReadPs + d.SwitchArbPs + d.XbarMuxPs + d.LinkPs
	case router.SpecFast:
		// Arbitration fully off the critical path.
		return d.SRAMReadPs + d.XbarMuxPs + d.LinkPs
	case router.SpecAccurate:
		return d.SRAMReadPs + d.XbarMuxPs + d.SwitchNextPs + d.LinkPs
	case router.NoX:
		return d.SRAMReadPs + d.DecodePs + d.XbarXORPs + d.LinkPs
	default:
		panic("physical: unknown architecture")
	}
}

// ClockPeriodNs returns the period in nanoseconds.
func (d Datapath) ClockPeriodNs(a router.Arch) float64 { return d.ClockPeriodPs(a) / 1000 }

// NoXPenaltyVsSpecAccurate returns NoX's relative clock handicap against
// the best speculative competitor on this datapath. §8's hypothesis in one
// number: the handicap shrinks as radix and channel length grow, because
// the decode cost is fixed while everything else scales.
func (d Datapath) NoXPenaltyVsSpecAccurate() float64 {
	return d.ClockPeriodPs(router.NoX)/d.ClockPeriodPs(router.SpecAccurate) - 1
}

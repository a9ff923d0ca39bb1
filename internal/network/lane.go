package network

import (
	"sync/atomic"

	"repro/internal/sim"
)

// niLane is the typed dispatch lane over one shard's interfaces (all of a
// serial network's; see internal/sim.Lane and internal/router.NewLane for the
// pattern). The NIs must be in kernel registration order — which they are:
// n.nis is registered element by element.
type niLane []*NI

// Len returns the number of interfaces the lane covers.
func (l niLane) Len() int { return len(l) }

// ComputeActive computes the awake interfaces.
func (l niLane) ComputeActive(cycle int64, active []uint32) {
	for i, ni := range l {
		if atomic.LoadUint32(&active[i]) == sim.Awake {
			ni.Compute(cycle)
		}
	}
}

// CommitActive commits awake interfaces and latches arrived ones, clears the
// flags of those that went quiet, and returns how many it put to sleep.
func (l niLane) CommitActive(cycle int64, active []uint32) int {
	quiets := 0
	for i, ni := range l {
		switch active[i] {
		case sim.Parked:
			continue
		case sim.Arrived:
			active[i] = sim.Awake
			ni.Latch(cycle)
		default:
			ni.Commit(cycle)
		}
		if ni.Quiet() {
			active[i] = sim.Parked
			quiets++
		}
	}
	return quiets
}

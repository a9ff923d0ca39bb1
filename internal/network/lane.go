package network

import (
	"sync/atomic"

	"repro/internal/probe"
	"repro/internal/sim"
)

// niLane is the typed dispatch lane over the network's interfaces, or one
// shard's (see internal/sim.Lane and internal/router.NewLane for the
// pattern). The NIs must be in kernel registration order — which they are:
// n.nis is registered element by element.
type niLane []*NI

// Len returns the number of interfaces the lane covers.
func (l niLane) Len() int { return len(l) }

// ComputeAll computes every interface (the fully-active serial step).
func (l niLane) ComputeAll(cycle int64) {
	for _, ni := range l {
		ni.Compute(cycle)
	}
}

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

// probedLane tags its shard's probe child with the segment it is about to
// walk, the merge key of every event the segment's components emit (see
// probe.SetShardContext). Bound only on probed sharded networks, so the
// unprobed lanes are the plain ones; the sharded walk calls only the Active
// methods.
type probedLane struct {
	sim.Lane
	probe *probe.Probe
	start int
}

func (l probedLane) ComputeActive(cycle int64, active []uint32) {
	l.probe.SetShardContext(sim.PhaseCompute, l.start)
	l.Lane.ComputeActive(cycle, active)
}

func (l probedLane) CommitActive(cycle int64, active []uint32) int {
	l.probe.SetShardContext(sim.PhaseCommit, l.start)
	return l.Lane.CommitActive(cycle, active)
}

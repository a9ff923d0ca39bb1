package router

import (
	"sync/atomic"

	"repro/internal/sim"
)

// NewLane groups routers into a typed dispatch lane for the kernel's serial
// step (sim.BindLane) or one shard of its sharded step (sim.BindShardLane): a
// concrete-typed slice whose walk loops make direct,
// devirtualizable calls instead of per-component interface dispatch. The
// routers must all be one concrete architecture (a network's always are —
// SpecFast and SpecAccurate share one implementation) and must be passed in
// their kernel registration order.
func NewLane(rs []Router) sim.Lane {
	if len(rs) == 0 {
		panic("router: NewLane of no routers")
	}
	switch rs[0].(type) {
	case *noxRouter:
		l := make(noxLane, len(rs))
		for i, r := range rs {
			l[i] = r.(*noxRouter)
		}
		return l
	case *specRouter:
		l := make(specLane, len(rs))
		for i, r := range rs {
			l[i] = r.(*specRouter)
		}
		return l
	case *nonspecRouter:
		l := make(nonspecLane, len(rs))
		for i, r := range rs {
			l[i] = r.(*nonspecRouter)
		}
		return l
	default:
		panic("router: NewLane of unknown router type")
	}
}

// The three lanes are hand-written rather than generic on purpose: a
// generics-based lane dispatches through a dictionary for pointer type
// parameters and devirtualizes nothing.

type noxLane []*noxRouter

func (l noxLane) Len() int { return len(l) }

func (l noxLane) ComputeAll(cycle int64) {
	for _, r := range l {
		r.Compute(cycle)
	}
}

func (l noxLane) CommitAll(cycle int64) {
	for _, r := range l {
		r.Commit(cycle)
	}
}

func (l noxLane) ComputeActive(cycle int64, active []uint32) {
	for i, r := range l {
		if atomic.LoadUint32(&active[i]) == sim.Awake {
			r.Compute(cycle)
		}
	}
}

func (l noxLane) CommitActive(cycle int64, active []uint32) int {
	quiets := 0
	for i, r := range l {
		switch active[i] {
		case sim.Parked:
			continue
		case sim.Arrived:
			active[i] = sim.Awake
			r.Latch(cycle)
		default:
			r.Commit(cycle)
		}
		if r.Quiet() {
			active[i] = sim.Parked
			quiets++
		}
	}
	return quiets
}

type specLane []*specRouter

func (l specLane) Len() int { return len(l) }

func (l specLane) ComputeAll(cycle int64) {
	for _, r := range l {
		r.Compute(cycle)
	}
}

func (l specLane) CommitAll(cycle int64) {
	for _, r := range l {
		r.Commit(cycle)
	}
}

func (l specLane) ComputeActive(cycle int64, active []uint32) {
	for i, r := range l {
		if atomic.LoadUint32(&active[i]) == sim.Awake {
			r.Compute(cycle)
		}
	}
}

func (l specLane) CommitActive(cycle int64, active []uint32) int {
	quiets := 0
	for i, r := range l {
		switch active[i] {
		case sim.Parked:
			continue
		case sim.Arrived:
			active[i] = sim.Awake
			r.Latch(cycle)
		default:
			r.Commit(cycle)
		}
		if r.Quiet() {
			active[i] = sim.Parked
			quiets++
		}
	}
	return quiets
}

type nonspecLane []*nonspecRouter

func (l nonspecLane) Len() int { return len(l) }

func (l nonspecLane) ComputeAll(cycle int64) {
	for _, r := range l {
		r.Compute(cycle)
	}
}

func (l nonspecLane) CommitAll(cycle int64) {
	for _, r := range l {
		r.Commit(cycle)
	}
}

func (l nonspecLane) ComputeActive(cycle int64, active []uint32) {
	for i, r := range l {
		if atomic.LoadUint32(&active[i]) == sim.Awake {
			r.Compute(cycle)
		}
	}
}

func (l nonspecLane) CommitActive(cycle int64, active []uint32) int {
	quiets := 0
	for i, r := range l {
		switch active[i] {
		case sim.Parked:
			continue
		case sim.Arrived:
			active[i] = sim.Awake
			r.Latch(cycle)
		default:
			r.Commit(cycle)
		}
		if r.Quiet() {
			active[i] = sim.Parked
			quiets++
		}
	}
	return quiets
}

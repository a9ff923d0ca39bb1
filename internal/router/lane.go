package router

import (
	"sync/atomic"

	"repro/internal/sim"
)

// NewLane groups routers into a typed dispatch lane for the kernel's serial
// step (sim.BindLane) or one shard of its sharded step (sim.BindShardLane): a
// concrete-typed slice whose walk loops make direct, devirtualizable calls
// instead of per-component interface dispatch. The routers must all be one
// concrete architecture (a network's always are — SpecFast and SpecAccurate
// share one implementation) and be passed in kernel registration order.
func NewLane(rs []Router) sim.Lane {
	if len(rs) == 0 {
		panic("router: NewLane of no routers")
	}
	switch rs[0].(type) {
	case *noxRouter:
		return &noxLane{rs: typed[*noxRouter](rs)}
	case *specRouter:
		return specLane(typed[*specRouter](rs))
	case *nonspecRouter:
		return nonspecLane(typed[*nonspecRouter](rs))
	default:
		panic("router: NewLane of unknown router type")
	}
}

// typed asserts every router to the lane's concrete type.
func typed[T Router](rs []Router) []T {
	out := make([]T, len(rs))
	for i, r := range rs {
		out[i] = r.(T)
	}
	return out
}

// The three lanes are hand-written rather than generic on purpose: a
// generics-based lane dispatches through a dictionary for pointer type
// parameters and devirtualizes nothing. ComputeAll is ComputeActive with no
// flags to consult.

// noxLane also owns the Compute scratch of its routers (see noxScratch).
type noxLane struct {
	rs []*noxRouter
	s  noxScratch
}

func (l *noxLane) Len() int { return len(l.rs) }

func (l *noxLane) ComputeAll(cycle int64) { l.ComputeActive(cycle, nil) }

func (l *noxLane) ComputeActive(cycle int64, active []uint32) {
	for i, r := range l.rs {
		if active == nil || atomic.LoadUint32(&active[i]) == sim.Awake {
			r.compute(cycle, &l.s)
		}
	}
}

func (l *noxLane) CommitActive(cycle int64, active []uint32) int {
	quiets := 0
	for i, r := range l.rs {
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

func (l specLane) ComputeAll(cycle int64) { l.ComputeActive(cycle, nil) }

func (l specLane) ComputeActive(cycle int64, active []uint32) {
	for i, r := range l {
		if active == nil || atomic.LoadUint32(&active[i]) == sim.Awake {
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

func (l nonspecLane) ComputeAll(cycle int64) { l.ComputeActive(cycle, nil) }

func (l nonspecLane) ComputeActive(cycle int64, active []uint32) {
	for i, r := range l {
		if active == nil || atomic.LoadUint32(&active[i]) == sim.Awake {
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

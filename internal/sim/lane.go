package sim

import "fmt"

// Typed dense lanes: devirtualized component iteration for the serial step
// and, per shard, for the sharded one.
//
// The generic step drives every component through the Clocked interface — an
// itab load and indirect call per phase per component per cycle, on objects
// scattered across the heap. A Lane replaces one contiguous run of
// registered components with a concrete-typed slice owned by the package
// that knows the element type (router, network interface); its walk
// methods are tight loops over that slice making direct calls, which the
// compiler can devirtualize and the CPU can predict. Hand-written per-type
// lanes are deliberate: a generics-based lane would still dispatch through a
// dictionary and devirtualize nothing.
//
// Lanes change iteration mechanics only — never semantics. The kernel keeps
// ownership of the activity flags and idle accounting, and every walk visits
// a shard's lanes in handle order, so commit-order guarantees and quiescence
// behavior are bit-identical to the generic walk and to the oracle's eager
// one (asserted by the lane-equivalence tests in internal/network).
//
// A serial kernel is shard 0 of the same lane table a sharded one walks per
// shard: one BindLane serves both, and a kernel with any lane bound walks
// nothing else, so every component must be covered before the first Step. A
// serial kernel with no lane walks its components through Clocked. A
// shard's components are lane-shaped: its routers and its interfaces are
// each a contiguous handle range.

// Lane is a typed view over the components registered at a contiguous run of
// kernel handles. Implementations hold the same objects the kernel holds,
// in registration order, and evaluate them with direct (devirtualized)
// calls.
//
// The active slice passed to both methods is the kernel's activity flags for
// exactly this lane's components (index i flags element i). ComputeActive
// evaluates elements whose flag is 1 (awake) and no others, loading each
// flag atomically at visit time: on the sharded path other shards raise
// parked flags to Arrived while the walk runs, and neither a parked nor an
// arrived element is computed. CommitActive visits elements with a nonzero
// flag, with plain loads and stores (in a commit phase only the owner
// touches its flags): an Arrived element gets Latch and a flag of 1, any
// other Commit. It then performs the kernel's quiescence bookkeeping inline:
// an element that now reports quiet has its flag cleared and is counted, and
// the count of elements put to sleep is returned (the kernel adjusts its
// idle accounting; a same-phase Arrive from a later component then re-raises
// the flag and the accounting stays balanced). Elements whose concrete type
// does not implement Quiescable must never be counted quiet.
type Lane interface {
	// Len returns the number of components the lane covers.
	Len() int
	// ComputeActive computes the awake elements.
	ComputeActive(cycle int64, active []uint32)
	// CommitActive commits awake elements and latches arrived ones, clears
	// the flags of those that went quiet, and returns how many it put to
	// sleep.
	CommitActive(cycle int64, active []uint32) int
}

// laneSeg is one bound lane, the handle range [start, end) it covers and the
// shard that walks it.
type laneSeg struct {
	shard, start, end int
	lane              Lane
}

// BindLane installs a typed lane over the components registered at handles
// [start, start+lane.Len()), all of which must belong to the given shard (a
// serial kernel has shard 0 only; bind a sharded kernel's lanes after
// SetSharding). The lane must hold those same components in the same order;
// the kernel cannot verify object identity, so a mismatched binding silently
// diverges — bind only slices captured at registration time. Bind a shard's
// lanes in ascending handle order, before the first Step, until every
// component is covered: a kernel with a lane walks nothing else.
func (k *Kernel) BindLane(shard int, start Handle, lane Lane) {
	if k.stepping {
		panic("sim: BindLane called during Step")
	}
	n := lane.Len()
	if n == 0 {
		return
	}
	seg := laneSeg{shard: shard, start: int(start), end: int(start) + n, lane: lane}
	shards := 1
	if k.sh != nil {
		shards = k.sh.shards
	}
	if shard < 0 || shard >= shards || seg.start < 0 || seg.end > len(k.components) {
		panic("sim: BindLane shard or range outside the kernel")
	}
	for i := len(k.lanes) - 1; i >= 0; i-- {
		if g := k.lanes[i]; g.shard == shard {
			if g.end > seg.start {
				panic("sim: BindLane ranges overlap or are out of order")
			}
			break
		}
	}
	if k.sh != nil {
		for h := seg.start; h < seg.end; h++ {
			if int(k.sh.shardOf[h]) != shard {
				panic(fmt.Sprintf("sim: BindLane covers component %d of shard %d, not %d", h, k.sh.shardOf[h], shard))
			}
		}
	}
	k.lanes = append(k.lanes, seg)
	k.covered += n
}

// Reserve pre-sizes the registration slices for n additional components, so
// a network that knows its component count up front registers everything
// with zero slice growth — and with no allocation at all on a kernel whose
// Reset kept arrays at least that large.
func (k *Kernel) Reserve(n int) {
	need := len(k.components) + n
	k.components = reserve(k.components, need)
	k.quiesc = reserve(k.quiesc, need)
	k.latch = reserve(k.latch, need)
	k.active = reserve(k.active, need)
	k.actWords = reserve(k.actWords, (need+63)/64)
}

// reserve returns s with capacity for n elements, reallocated only when short.
func reserve[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s
	}
	return append(make([]T, 0, n), s...)
}

// walkLanes runs one phase of shard s's lanes in handle order and returns
// how many components the commit phase put to sleep (0 for compute).
func (k *Kernel) walkLanes(s, phase int) int {
	cycle := k.cycle
	quiets := 0
	for _, g := range k.lanes {
		if g.shard != s {
			continue
		}
		flags := k.active[g.start:g.end]
		if phase == phaseCompute {
			g.lane.ComputeActive(cycle, flags)
		} else {
			quiets += g.lane.CommitActive(cycle, flags)
		}
	}
	return quiets
}

// walkClocked is the dense walk of a serial kernel with no lane: both phases
// in registration order through the Clocked interface.
func (k *Kernel) walkClocked() {
	cycle := k.cycle
	for i, c := range k.components {
		if k.active[i] == Awake {
			c.Compute(cycle)
		}
	}
	for i := range k.components {
		k.commitOne(i, cycle)
	}
}

// commitOne is the generic-path commit slot of component i: nothing for a
// parked component, Latch for an arrived one, Commit otherwise, then quiet
// tracking.
func (k *Kernel) commitOne(i int, cycle int64) {
	switch k.active[i] {
	case Parked:
		return
	case Arrived:
		k.active[i] = Awake
		if l := k.latch[i]; l != nil {
			l.Latch(cycle)
		}
	default:
		k.components[i].Commit(cycle)
	}
	if q := k.quiesc[i]; q != nil && q.Quiet() {
		k.active[i] = Parked
		k.idle++
	}
}

package sim

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
// ownership of the activity flags and idle accounting, and the serial step
// interleaves lane segments with generic ranges in registration order, so
// commit-order guarantees and quiescence behavior are bit-identical to the
// generic walk and to the oracle's eager one (asserted by the
// lane-equivalence tests in internal/network).
//
// The sharded executor walks nothing but lanes, bound per shard
// (BindShardLane, in shard.go). Its barrier is a spin on an atomic word, so
// dispatch is what is left to save there too, and a shard's components are
// lane-shaped: its routers and its interfaces are each a contiguous handle
// range.

// Lane is a typed view over the components registered at a contiguous run of
// kernel handles. Implementations hold the same objects the kernel holds,
// in registration order, and evaluate them with direct (devirtualized)
// calls.
//
// The active slice passed to the Active variants is the kernel's activity
// flags for exactly this lane's components (index i flags element i).
// ComputeActive evaluates elements whose flag is 1 (awake) and no others,
// loading each flag atomically at visit time: on the sharded path other
// shards raise parked flags to Arrived while the walk runs, and neither a
// parked nor an arrived element is computed. CommitActive visits elements
// with a nonzero flag, with plain loads and stores (in a commit phase only
// the owner touches its flags): an Arrived element gets Latch and a flag of
// 1, any other Commit. It then performs the kernel's quiescence bookkeeping
// inline: an element that now reports quiet has its flag cleared and is
// counted, and the count of elements put to sleep is returned (the kernel
// adjusts its idle counter; a same-phase Arrive from a later component then
// re-raises the flag and the accounting stays balanced). Elements whose
// concrete type does not implement Quiescable must never be counted quiet.
type Lane interface {
	// Len returns the number of components the lane covers.
	Len() int
	// ComputeAll computes every element (the serial step's fully-active
	// fast path).
	ComputeAll(cycle int64)
	// ComputeActive computes the awake elements.
	ComputeActive(cycle int64, active []uint32)
	// CommitActive commits awake elements and latches arrived ones, clears
	// the flags of those that went quiet, and returns how many it put to
	// sleep.
	CommitActive(cycle int64, active []uint32) int
}

// laneSeg is one bound lane and the handle range it covers.
type laneSeg struct {
	start, end int
	lane       Lane
}

// BindLane installs a typed lane over the components registered at handles
// [start, start+lane.Len()). The lane must hold those same components in the
// same order; the kernel cannot verify object identity, so a mismatched
// binding silently diverges — bind only slices captured at registration
// time. Lanes may not overlap and must be bound before the first Step. This
// is the serial binding; a sharded kernel panics here and takes its lanes
// per shard through BindShardLane.
func (k *Kernel) BindLane(start Handle, lane Lane) {
	if k.stepping {
		panic("sim: BindLane called during Step")
	}
	if k.sh != nil {
		panic("sim: BindLane on a sharded kernel (use BindShardLane)")
	}
	n := lane.Len()
	if n == 0 {
		return
	}
	s, e := int(start), int(start)+n
	if s < 0 || e > len(k.components) {
		panic("sim: BindLane range outside registered components")
	}
	at := len(k.lanes)
	for i, seg := range k.lanes {
		if s < seg.end && seg.start < e {
			panic("sim: BindLane ranges overlap")
		}
		if s < seg.start {
			at = i
			break
		}
	}
	k.lanes = append(k.lanes, laneSeg{})
	copy(k.lanes[at+1:], k.lanes[at:])
	k.lanes[at] = laneSeg{start: s, end: e, lane: lane}
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

// walkCompute runs the compute phase in registration order, interleaving
// lane segments with generic ranges. all selects the everything-active fast
// path (no flag checks).
func (k *Kernel) walkCompute(all bool) {
	cycle := k.cycle
	i := 0
	for _, seg := range k.lanes {
		if all {
			for ; i < seg.start; i++ {
				k.components[i].Compute(cycle)
			}
			seg.lane.ComputeAll(cycle)
		} else {
			for ; i < seg.start; i++ {
				if k.active[i] == Awake {
					k.components[i].Compute(cycle)
				}
			}
			seg.lane.ComputeActive(cycle, k.active[seg.start:seg.end])
		}
		i = seg.end
	}
	if all {
		for ; i < len(k.components); i++ {
			k.components[i].Compute(cycle)
		}
	} else {
		for ; i < len(k.components); i++ {
			if k.active[i] == Awake {
				k.components[i].Compute(cycle)
			}
		}
	}
}

// walkCommitQuiesce runs the commit phase with quiescence bookkeeping: quiet
// components drop out of the active set.
func (k *Kernel) walkCommitQuiesce() {
	cycle := k.cycle
	i := 0
	for _, seg := range k.lanes {
		for ; i < seg.start; i++ {
			k.commitOne(i, cycle)
		}
		k.idle += seg.lane.CommitActive(cycle, k.active[seg.start:seg.end])
		i = seg.end
	}
	for ; i < len(k.components); i++ {
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

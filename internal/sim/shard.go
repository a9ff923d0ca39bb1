package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Sharded execution: the kernel's two-phase cycle split across a persistent
// worker pool, bit-exact with the serial path.
//
// The cycle becomes three barrier-separated phases:
//
//	phase 0  Compute  — every shard evaluates all of its active components.
//	phase 1  Commit-early — shards commit their active early components
//	         (routers, NIs) in registration order within the shard.
//	phase 2  Commit-late  — shards commit their active late components
//	         (links) in registration order within the shard.
//
// Why this is equivalent to the serial registration-order walk:
//
//   - Compute, by the kernel's contract, reads only committed state and
//     stages into sender-owned storage, so compute order is unobservable.
//   - Commits perform cross-component writes in exactly one direction:
//     early components stage onto late ones (credit returns, staged flits
//     already placed by compute), and late components deliver into early
//     ones. Within a class, no commit writes to another component of the
//     same class, so intra-class order is unobservable and classes can run
//     in parallel; the barrier between phases 1 and 2 preserves the only
//     order that matters (early-before-late), which is the same order the
//     serial walk gets from links being registered last.
//   - Wakes are phase-disjoint: compute-phase wakes target late components
//     (whose Compute is a no-op, so missing them mid-phase is
//     unobservable), phase-1 wakes target late components, and phase-2
//     wakes target early components. A component's active flag is
//     therefore never woken concurrently with its owner shard clearing it,
//     and every wake lands before the phase that next evaluates the
//     target.
//
// The barrier. A phase of a 32x32 mesh is about a hundred microseconds of
// work per shard, and a barrier that blocks (channel send + WaitGroup) costs
// two futex round-trips, six a cycle: more than the parallelism buys — that
// design measured 0.6-0.8x serial on two CPUs. Dispatch is therefore a pair
// of atomic words per waiter (see gate): the stepping goroutine stores the
// phase into each working shard's gate, runs the first working shard
// inline, and waits on its own gate, which the last worker to finish posts.
// A waiter spins on its word for a bounded, adaptive budget and parks on a
// channel only when the budget runs out; a poster pays for a channel send
// only when the waiter advertised that it parked. Spinning is allowed only
// while shards <= GOMAXPROCS (otherwise a spinner can hold the CPU the
// worker it waits for needs). The budget is at most spinCap (a few 32x32
// phases); it halves on every wait that outlasts spinLong, down to zero —
// park at once — and doubles back on every wait that is over sooner,
// whether it was caught spinning or parked for want of budget. A kernel at
// rest, an oversubscribed host and a stepper that does long work between
// cycles therefore converge on parking, and a kernel stepped back
// to back converges on spinning. Nothing here is configurable.
//
// Cross-shard effects that are order-sensitive at the simulation surface
// (deliveries, probe events) are not handled here: owners stage them into
// per-shard mailboxes and drain them in the kernel epilogue (see
// SetEpilogue), which runs on the stepping goroutine after the last
// barrier.

// Phase identifiers passed to the eval hook; also the most significant
// ordering key when per-shard probe buffers are merged back into serial
// emission order.
const (
	PhaseCompute = 0
	PhaseEarly   = 1
	PhaseLate    = 2
)

// Gate words: a posted phase is phase+1 so that zero means "nothing posted".
const (
	gateClose = PhaseLate + 2 // worker exits
	gateDone  = 1             // posted to the stepping goroutine's gate
)

// Spin budget bounds (see the barrier paragraph above). spinCap covers a
// phase's imbalance and the stepping goroutine's work between cycles
// (injection, the epilogue, a harness's bookkeeping) with room to spare, and
// no more: when the host takes a CPU away, a waiter spinning for a worker
// that is not running holds the one CPU that worker could move to (with
// 1 ms, a 32x32 step beside one busy process measured 20 % slower).
// spinLong, the wait that counts against the budget, is longer than that on
// purpose: a parked waiter's wait includes the host's wake-up latency, and
// with spinLong = spinCap a kernel whose budgets had reached zero could stay
// parked — at half speed — for a second at a time. Below spinFloor a budget
// is not worth a clock read and collapses to zero. A spinning waiter reads
// the clock and yields its P every spinCheck loads, so it notices a post
// within ~150 ns and never starves a runnable goroutine for longer than
// that.
const (
	spinCap   = 250 * time.Microsecond
	spinLong  = 4 * spinCap
	spinFloor = 2 * time.Microsecond
	spinCheck = 64
)

// shardLive says whether a shard may have active components, per commit
// class; one cache line per shard. A word is raised by every wake edge into
// the class and rewritten by the owner after the class's commit walk — the
// one stretch in which no wake targets that class — so outside that walk a
// raised word means a raised flag, exactly. A summary word and not a count:
// a count would cost every wake edge a locked add on a line all workers
// share, and only ActiveComponents needs one.
type shardLive struct {
	early, late atomic.Uint32
	_           [56]byte
}

// gate is one waiter's half of the phase barrier: a command word its poster
// stores into, and the parked flag + channel the waiter falls back to when
// its spin budget runs out. One goroutine waits on a gate (take) and at most
// one post is outstanding at a time. Padded to a cache line: gates of
// adjacent shards are spun on by different CPUs.
type gate struct {
	word   atomic.Uint32
	parked atomic.Uint32
	wake   chan struct{} // capacity 1; a stale token only costs one re-check
	// budget is how long take spins before parking; owned by the waiter.
	budget time.Duration
	_      [40]byte
}

// post publishes a non-zero word and wakes the waiter if it parked. The
// waiter sets parked before its final re-check of the word, and both sides
// use sequentially consistent atomics, so either the waiter sees the word or
// the poster sees the flag.
func (g *gate) post(v uint32) {
	g.word.Store(v)
	if g.parked.Load() != 0 {
		select {
		case g.wake <- struct{}{}:
		default:
		}
	}
}

// take waits for a posted word, consumes it, and adapts the spin budget: a
// wait that is over within spinLong — caught spinning, or parked for want of
// budget — doubles it, a longer one halves it. spin is false when spinning is not allowed at all (shards >
// GOMAXPROCS); the budget then stays zero.
func (g *gate) take(spin bool) uint32 {
	v := g.word.Load()
	if v == 0 {
		var start time.Time
		if spin {
			start = time.Now()
		}
		if v = g.spinFor(start); v == 0 {
			g.parked.Store(1)
			for v = g.word.Load(); v == 0; v = g.word.Load() {
				<-g.wake
			}
			g.parked.Store(0)
		}
		switch {
		case !spin:
		case time.Since(start) >= spinLong:
			if g.budget /= 2; g.budget < spinFloor {
				g.budget = 0
			}
		case g.budget < spinFloor:
			g.budget = spinFloor
		default:
			g.budget = min(2*g.budget, spinCap)
		}
	}
	g.word.Store(0)
	return v
}

// spinFor polls the word for up to the budget and returns it, zero on
// timeout (or with no budget).
func (g *gate) spinFor(start time.Time) uint32 {
	if g.budget == 0 {
		return 0
	}
	for i := 1; ; i++ {
		if v := g.word.Load(); v != 0 {
			return v
		}
		if i%spinCheck == 0 {
			if time.Since(start) >= g.budget {
				return 0
			}
			runtime.Gosched()
		}
	}
}

type sharding struct {
	shards  int
	shardOf []int32 // component index -> shard

	// Per-shard ascending component-index lists: the generic walk, taken
	// when an eval hook is installed or the owner bound no lanes. all is the
	// compute-phase walk; early/late are the commit-phase walks.
	all   [][]int32
	early [][]int32
	late  [][]int32

	// Per-shard typed walks (see BindShardLane); laneCover counts the
	// components they cover, and the lane walk is taken once that is all of
	// them.
	earlyLanes [][]shardSeg
	lateLanes  [][]shardSeg
	laneCover  int
	laned      bool // the lane walk is the one in use

	// live[s] is shard s's activity summary (see shardLive); lateMark is the
	// first late handle, the class boundary wake needs.
	live     []shardLive
	lateMark int

	// evalHook, when set, runs immediately before every component
	// evaluation on the worker that performs it. The probe layer uses it to
	// tag per-shard event buffers with (phase, component) so they can be
	// merged into serial emission order.
	evalHook func(shard, phase, comp int)

	// wheels[s] holds shard s's pending timed wakes. Workers schedule into
	// their own shard's wheel during commit walks (worker-local, no
	// synchronization); the stepping goroutine pops every wheel at the top
	// of the step, with all workers quiescent, through the atomic wake path.
	// Empty slice when the kernel has no Horizoned components.
	wheels []*timingWheel

	// The phase barrier. gates[s] carries phases to shard s's worker
	// (gates[0] is unused: the first working shard always runs inline, so
	// shard 0 is never posted to and has no worker); pending counts the
	// workers still running the current phase, and the one that brings it to
	// zero posts done, the stepping goroutine's gate. spin is whether
	// waiters may spin at all.
	gates   []gate
	done    gate
	pending atomic.Int32
	spin    bool
	workers sync.WaitGroup
	closed  bool

	// dispatchMask is per-phase scratch: the snapshot of which shards were
	// dispatched. Snapshotting matters — an already-running worker can wake
	// a component in a shard the dispatcher has not reached yet, and the
	// post loop must agree with the count stored into pending.
	dispatchMask []bool
}

// SetSharding partitions the registered components into shards and starts
// one persistent worker goroutine per shard after the first (shard 0 always
// runs on the stepping goroutine). shardOf[i] assigns component (Handle) i;
// the caller chooses the partition — the network co-locates each node's
// router, NIs, and incoming links so every commit-phase write except Wake
// stays inside one shard.
//
// Must be called after all components are registered and before the first
// Step; the kernel rejects further Add/AddLate calls. Call Close when the
// simulation is done to release the workers.
func (k *Kernel) SetSharding(shards int, shardOf []int) {
	if k.sh != nil {
		panic("sim: SetSharding called twice")
	}
	if k.stepping {
		panic("sim: SetSharding called during Step")
	}
	if shards < 1 {
		panic("sim: SetSharding requires at least one shard")
	}
	if len(k.lanes) != 0 {
		panic("sim: SetSharding on a kernel with bound lanes (bind shard lanes after SetSharding instead)")
	}
	if len(shardOf) != len(k.components) {
		panic(fmt.Sprintf("sim: SetSharding got %d assignments for %d components", len(shardOf), len(k.components)))
	}
	sh := &sharding{
		shards:     shards,
		shardOf:    make([]int32, len(shardOf)),
		all:        make([][]int32, shards),
		early:      make([][]int32, shards),
		late:       make([][]int32, shards),
		earlyLanes: make([][]shardSeg, shards),
		lateLanes:  make([][]shardSeg, shards),
		live:       make([]shardLive, shards),
		gates:      make([]gate, shards),
		spin:       shards <= runtime.GOMAXPROCS(0),

		dispatchMask: make([]bool, shards),
	}
	lateMark := k.lateMark
	if lateMark < 0 {
		lateMark = len(k.components)
	}
	for i, s := range shardOf {
		if s < 0 || s >= shards {
			panic(fmt.Sprintf("sim: component %d assigned to shard %d of %d", i, s, shards))
		}
		sh.shardOf[i] = int32(s)
		sh.all[s] = append(sh.all[s], int32(i))
		if i < lateMark {
			sh.early[s] = append(sh.early[s], int32(i))
		} else {
			sh.late[s] = append(sh.late[s], int32(i))
		}
	}
	sh.lateMark = lateMark
	k.idle = 0 // the flags and sh.live take over
	if k.wheel != nil {
		// Per-shard wheels take over from the serial wheel, which is empty
		// here: entries are only filed by commit bookkeeping and SetSharding
		// precedes the first Step. The serial summary bitmap retires with it
		// (the sharded step never takes the sparse walk).
		sh.wheels = make([]*timingWheel, shards)
		for s := range sh.wheels {
			sh.wheels[s] = newTimingWheel(k.cycle)
		}
		k.wheel = nil
		k.actWords = nil
	}
	k.sh = sh
	for s := range sh.live {
		sh.settle(k, s, PhaseEarly)
		sh.settle(k, s, PhaseLate)
	}
	sh.done.wake = make(chan struct{}, 1)
	for s := 1; s < shards; s++ {
		sh.gates[s].wake = make(chan struct{}, 1)
		sh.workers.Add(1)
		go k.shardWorker(s)
	}
}

// shardWorker is shard s's persistent goroutine: take a phase, run it,
// check in, until Close.
func (k *Kernel) shardWorker(s int) {
	sh := k.sh
	defer sh.workers.Done()
	g := &sh.gates[s]
	for {
		ph := g.take(sh.spin)
		if ph == gateClose {
			return
		}
		k.runShard(s, int(ph)-1)
		if sh.pending.Add(-1) == 0 {
			sh.done.post(gateDone)
		}
	}
}

// Sharded reports whether the kernel runs on the sharded executor.
func (k *Kernel) Sharded() bool { return k.sh != nil }

// Shards returns the worker-shard count (0 on the serial path).
func (k *Kernel) Shards() int {
	if k.sh == nil {
		return 0
	}
	return k.sh.shards
}

// SetEvalHook installs a callback invoked immediately before every
// component evaluation on the sharded path, on the worker goroutine that
// performs it, with the shard, phase (PhaseCompute/PhaseEarly/PhaseLate),
// and component index. Nil removes it. The serial path never calls it.
func (k *Kernel) SetEvalHook(fn func(shard, phase, comp int)) {
	if sh := k.sh; sh != nil {
		sh.evalHook = fn
		sh.relane(k)
	}
}

// Close shuts down the sharded worker pool and returns once every worker
// has exited, whether it was spinning or parked. Stepping a closed kernel
// panics; Close on a serial kernel is a no-op. Safe to call more than once.
func (k *Kernel) Close() {
	sh := k.sh
	if sh == nil || sh.closed {
		return
	}
	if k.stepping {
		panic("sim: Close during Step")
	}
	sh.closed = true
	for s := 1; s < sh.shards; s++ {
		sh.gates[s].post(gateClose)
	}
	sh.workers.Wait()
}

// anyLive reports whether any shard may have an active component.
func (sh *sharding) anyLive() bool {
	for s := range sh.live {
		if sh.live[s].early.Load()|sh.live[s].late.Load() != 0 {
			return true
		}
	}
	return false
}

// raiseAll marks every shard live in both classes (every flag was raised).
func (sh *sharding) raiseAll() {
	for s := range sh.live {
		sh.live[s].early.Store(1)
		sh.live[s].late.Store(1)
	}
}

// settle recomputes one class's live word of shard s from the flags, with
// an early exit at the first raised one. The owner calls it after a commit
// walk that put something to sleep; a walk that did not cannot have changed
// the answer.
func (sh *sharding) settle(k *Kernel, s, phase int) {
	list, word := sh.early[s], &sh.live[s].early
	if phase == PhaseLate {
		list, word = sh.late[s], &sh.live[s].late
	}
	live := uint32(0)
	for _, i := range list {
		if atomic.LoadUint32(&k.active[i]) != 0 {
			live = 1
			break
		}
	}
	word.Store(live)
}

// wake is the sharded Wake: safe from any worker goroutine. The load keeps
// the common already-active case to one read; raising a flag is idempotent,
// so concurrent wakers of one component need no arbitration, and the
// shard's live word is stored only on its own 0→1 edge.
//
// Under the lane walk a late component's flag needs no atomics at all, and
// that is most wakes (a link is woken by every flit sent onto it and every
// credit returned to it): outside the late phase nothing reads the flag —
// the late lanes' compute walks must not, see BindShardLane — and the only
// writer is the component's one waker of the phase, its sole driver during
// compute and its sink during the early commits. The atomic store is a full
// fence, which on a mesh whose stores mostly miss the cache cost a sixth of
// the sharded step.
func (sh *sharding) wake(k *Kernel, h Handle) {
	late := int(h) >= sh.lateMark
	if late && sh.laned {
		if k.active[h] != 0 {
			return
		}
		k.active[h] = 1
	} else {
		if atomic.LoadUint32(&k.active[h]) != 0 {
			return
		}
		atomic.StoreUint32(&k.active[h], 1)
	}
	word := &sh.live[sh.shardOf[h]].early
	if late {
		word = &sh.live[sh.shardOf[h]].late
	}
	raise(word)
}

// raise sets a live word, storing only when it is not already set: many
// workers load it, few ever have to write it.
func raise(word *atomic.Uint32) {
	if word.Load() == 0 {
		word.Store(1)
	}
}

// stepSharded runs one cycle across the worker pool. Step has already set
// the reentrancy guard; epilogue/observer/cycle advance happen back in
// Step after the last barrier.
func (k *Kernel) stepSharded() {
	sh := k.sh
	if sh.closed {
		panic("sim: Step on a closed kernel")
	}
	// Pop due timed wakes before sizing the cycle: a fired wake re-activates
	// its component through the atomic path, so the idleness check below sees
	// it. Runs on the stepping goroutine with every worker quiescent.
	for _, w := range sh.wheels {
		if w.len() != 0 {
			w.popDue(k.cycle, k)
		}
	}
	if !k.alwaysActive && !sh.anyLive() {
		// Fully quiescent: pure clock advance, same as the serial path.
		return
	}
	sh.dispatch(k, PhaseCompute)
	sh.dispatch(k, PhaseEarly)
	sh.dispatch(k, PhaseLate)
}

// dispatch fans one phase out to every shard that has work, running the
// first working shard inline on the stepping goroutine, and waits for the
// barrier. Idleness is re-read per phase: commit-phase wakes can hand work
// to a shard that was fully idle when the cycle started.
func (sh *sharding) dispatch(k *Kernel, phase int) {
	inline := -1
	n := 0
	mask := sh.dispatchMask
	for s := 0; s < sh.shards; s++ {
		w := sh.shardWorks(k, s, phase)
		mask[s] = w
		if !w {
			continue
		}
		if inline < 0 {
			inline = s
			continue
		}
		n++
	}
	if inline < 0 {
		return
	}
	if n > 0 {
		sh.pending.Store(int32(n))
		for s := inline + 1; s < sh.shards; s++ {
			if mask[s] {
				sh.gates[s].post(uint32(phase) + 1)
			}
		}
	}
	k.runShard(inline, phase)
	if n > 0 {
		sh.done.take(sh.spin)
	}
}

// shardWorks reports whether shard s has anything to do in the phase. A
// false positive (dispatched shard finds all its components asleep) only
// costs a scan; a false negative would drop work, so the test is
// conservative: any active component in the shard dispatches it for every
// phase that has a non-empty walk list.
func (sh *sharding) shardWorks(k *Kernel, s, phase int) bool {
	var list []int32
	switch phase {
	case PhaseCompute:
		list = sh.all[s]
	case PhaseEarly:
		list = sh.early[s]
	default:
		list = sh.late[s]
	}
	if len(list) == 0 {
		return false
	}
	return k.alwaysActive || sh.live[s].early.Load()|sh.live[s].late.Load() != 0
}

// shardSeg is one typed segment of a shard's walk: a lane over components
// the shard owns, and the window of the activity flags the lane is handed.
type shardSeg struct {
	lane Lane
	// A contiguous segment covers handles [start, end) and sees
	// active[start:end]; a scattered one sees the whole array and indexes it
	// by the handles it was built with (end is then its last handle + 1).
	start, end int
	scattered  bool
}

func (g shardSeg) flags(k *Kernel) []uint32 {
	if g.scattered {
		return k.active
	}
	return k.active[g.start:g.end]
}

// BindShardLane installs a typed lane over the components at handles
// [start, start+lane.Len()), all of which must belong to the given shard and
// to one commit class. It is BindLane for the sharded step: the same Lane
// implementations serve both, because a shard's routers and interfaces are
// contiguous handle ranges. Bind a shard's lanes in ascending handle order,
// after SetSharding and before the first Step.
//
// The shard walks its lanes instead of its index lists once every component
// of the kernel is covered by some shard's lanes and no eval hook is
// installed. Lanes read and write the activity flags with plain loads and
// stores, which is sound for the reason wakes are phase-disjoint (see the
// header): while a shard walks a class's flags, no wake targets that class.
// The one exception is the compute phase, whose wakes target late
// components — so a lane over late components must not read its flags in
// ComputeActive (the production one, the link lane, computes nothing).
func (k *Kernel) BindShardLane(shard int, start Handle, lane Lane) {
	if n := lane.Len(); n != 0 {
		k.bindShardSeg(shard, shardSeg{lane: lane, start: int(start), end: int(start) + n}, nil)
	}
}

// BindShardLaneAt is BindShardLane for components that are not contiguous:
// handles lists them in ascending order, one per lane element. The lane is
// handed the kernel's whole flag array and must index it by those same
// handles (see noc.ShardLinkLane, which keeps this very slice).
func (k *Kernel) BindShardLaneAt(shard int, handles []int32, lane Lane) {
	if len(handles) != lane.Len() {
		panic(fmt.Sprintf("sim: BindShardLaneAt got %d handles for a lane of %d", len(handles), lane.Len()))
	}
	if len(handles) != 0 {
		first, last := int(handles[0]), int(handles[len(handles)-1])
		k.bindShardSeg(shard, shardSeg{lane: lane, start: first, end: last + 1, scattered: true}, handles)
	}
}

func (k *Kernel) bindShardSeg(shard int, seg shardSeg, handles []int32) {
	sh := k.sh
	if sh == nil {
		panic("sim: BindShardLane on a kernel that is not sharded")
	}
	if k.stepping {
		panic("sim: BindShardLane called during Step")
	}
	if shard < 0 || shard >= sh.shards || seg.start < 0 || seg.end > len(k.components) {
		panic("sim: BindShardLane shard or range outside the kernel")
	}
	list := &sh.earlyLanes[shard]
	if seg.start >= sh.lateMark {
		list = &sh.lateLanes[shard]
	} else if seg.end > sh.lateMark {
		panic("sim: BindShardLane range spans early and late components")
	}
	if n := len(*list); n > 0 && (*list)[n-1].end > seg.start {
		panic("sim: BindShardLane ranges overlap or are out of order")
	}
	owned := func(h int) {
		if int(sh.shardOf[h]) != shard {
			panic(fmt.Sprintf("sim: BindShardLane covers component %d of shard %d, not %d", h, sh.shardOf[h], shard))
		}
	}
	if handles == nil {
		for h := seg.start; h < seg.end; h++ {
			owned(h)
		}
	}
	for i, h := range handles {
		if i > 0 && h <= handles[i-1] {
			panic("sim: BindShardLaneAt handles not ascending")
		}
		owned(int(h))
	}
	*list = append(*list, seg)
	sh.laneCover += seg.lane.Len()
	sh.relane(k)
}

// relane decides which walk the shards take: the lanes once they cover every
// component, unless an eval hook needs the per-component walk.
func (sh *sharding) relane(k *Kernel) {
	sh.laned = sh.evalHook == nil && sh.laneCover == len(k.components)
}

// runShard executes one phase of one shard. Runs on a worker goroutine (or
// inline on the stepping goroutine for the first working shard).
func (k *Kernel) runShard(s, phase int) {
	sh := k.sh
	if sh.laned {
		k.runShardLanes(s, phase)
		return
	}
	k.runShardGeneric(s, phase)
}

// runShardLanes is the typed walk: the shard's lanes in handle order, early
// class before late, with the kernel's quiescence bookkeeping done inline by
// the lanes and folded into the shard's live word once per phase.
func (k *Kernel) runShardLanes(s, phase int) {
	sh := k.sh
	cycle := k.cycle
	if phase == PhaseCompute {
		for _, segs := range [2][]shardSeg{sh.earlyLanes[s], sh.lateLanes[s]} {
			for _, g := range segs {
				if k.alwaysActive {
					g.lane.ComputeAll(cycle)
				} else {
					g.lane.ComputeActive(cycle, g.flags(k))
				}
			}
		}
		return
	}
	segs := sh.earlyLanes[s]
	if phase == PhaseLate {
		segs = sh.lateLanes[s]
	}
	quiets := 0
	for _, g := range segs {
		if k.alwaysActive {
			g.lane.CommitAll(cycle)
		} else {
			quiets += g.lane.CommitActive(cycle, g.flags(k))
		}
	}
	if quiets != 0 {
		sh.settle(k, s, phase)
	}
}

// runShardGeneric is the index-list walk through the Clocked interface, with
// the eval hook: the path probed runs and lane-less kernels take. Its flag
// accesses are atomic because its compute walk also visits late components,
// which compute-phase wakes target concurrently.
func (k *Kernel) runShardGeneric(s, phase int) {
	sh := k.sh
	hook := sh.evalHook
	cycle := k.cycle
	if phase == PhaseCompute {
		if k.alwaysActive {
			for _, i := range sh.all[s] {
				if hook != nil {
					hook(s, PhaseCompute, int(i))
				}
				k.components[i].Compute(cycle)
			}
			return
		}
		for _, i := range sh.all[s] {
			if atomic.LoadUint32(&k.active[i]) != 0 {
				if hook != nil {
					hook(s, PhaseCompute, int(i))
				}
				k.components[i].Compute(cycle)
			}
		}
		return
	}
	list := sh.early[s]
	if phase == PhaseLate {
		list = sh.late[s]
	}
	if k.alwaysActive {
		for _, i := range list {
			if hook != nil {
				hook(s, phase, int(i))
			}
			k.components[i].Commit(cycle)
		}
		return
	}
	quiets := int32(0)
	for _, i := range list {
		if atomic.LoadUint32(&k.active[i]) == 0 {
			continue
		}
		if hook != nil {
			hook(s, phase, int(i))
		}
		k.components[i].Commit(cycle)
		if q := k.quiesc[i]; q != nil && q.Quiet() {
			atomic.StoreUint32(&k.active[i], 0)
			quiets++
			continue
		}
		// Horizon parking, same bookkeeping as the serial commitOne. The
		// timed wake lands in this shard's own wheel — worker-local, popped
		// by the stepping goroutine between cycles.
		if hz := k.hzn[i]; hz != nil {
			if at := hz.Horizon(cycle); at > cycle+1 {
				atomic.StoreUint32(&k.active[i], 0)
				quiets++
				if at != Never {
					sh.wheels[s].schedule(at, Handle(i))
				}
			}
		}
	}
	if quiets != 0 {
		sh.settle(k, s, phase)
	}
}

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
// The cycle is two barrier-separated phases, the serial step's own:
//
//	phase 0  Compute — every shard computes its awake components.
//	phase 1  Commit  — every shard visits its awake and arrived components
//	         in registration order: Commit for the first, Latch for the
//	         second, then the quiescence bookkeeping.
//
// Why this is equivalent to the serial registration-order walk:
//
//   - Compute, by the kernel's contract, reads only committed state and
//     stages into storage the component owns or is the sole driver of (the
//     staging register of a channel it sends on), so compute order is
//     unobservable.
//   - A commit writes only what its component owns: its own state, and the
//     channels it is the sink of — it takes the flit staged there and hands
//     credits back in place, and nothing reads a credit count before the
//     next compute phase. The one cross-component commit write is a router
//     waking the interface of its own tile (below), and the owner assigns
//     both to one shard with the router first. So commit order across
//     shards is unobservable and within a shard it is registration order.
//   - Who wakes whom: a compute-phase Send calls Arrive for the channel's
//     sink, on any shard. The store is atomic and moves a parked flag to
//     arrived, which the compute walks skip exactly like parked — so whether
//     the sink's compute slot had passed is not observable — and after the
//     barrier the sink's shard finds the flag at the sink's commit slot. A
//     commit-phase Arrive stays inside the shard and ahead of the walk: a
//     router whose returned credits lift an injection channel off zero
//     wakes the interface driving it. Wake, the between-steps form, is legal
//     from any goroutine while no phase is running.
//
// The barrier. A phase of a 32x32 mesh is about a hundred microseconds of
// work per shard, and a barrier that blocks (channel send + WaitGroup) costs
// two futex round-trips per phase: more than the parallelism buys — that
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
// A shard walks only its typed lanes (BindShardLane): every component of a
// sharded kernel must be covered by one, and Step panics otherwise.
//
// Cross-shard effects that are order-sensitive at the simulation surface
// (deliveries) are not handled here: owners stage them into per-shard
// mailboxes and drain them in the kernel epilogue (see SetEpilogue), which
// runs on the stepping goroutine after the last barrier. Probes are not
// among them: a probed network runs serially.

// Phase identifiers: the phases posted through the barrier.
const (
	phaseCompute = 0
	phaseCommit  = 1
)

// Gate words: a posted phase is phase+1 so that zero means "nothing posted".
const (
	gateClose = phaseCommit + 2 // worker exits
	gateDone  = 1               // posted to the stepping goroutine's gate
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

// shardLive says whether a shard may have raised components; one cache line
// per shard. The word is raised by every wake edge into the shard and
// rewritten by the owner after its commit walk — the one stretch in which no
// other shard raises its flags — so outside that walk a raised word means a
// raised flag, exactly. A summary word and not a count: a count would cost
// every wake edge a locked add on a line all workers share, and only
// ActiveComponents needs one.
type shardLive struct {
	word atomic.Uint32
	_    [60]byte
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

	// lanes[s] is shard s's walk, in ascending handle order (see
	// BindShardLane); unbound counts the components no lane covers yet,
	// which must be none by the first Step.
	lanes   [][]shardSeg
	unbound int

	// live[s] is shard s's activity summary (see shardLive).
	live []shardLive

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
// router and NIs, and every channel belongs to its sink, so every
// commit-phase write stays inside one shard.
//
// Must be called after all components are registered, and every component
// must then be covered by a shard lane (BindShardLane) before the first
// Step; the kernel rejects further Add calls. Call Close when the simulation
// is done to release the workers.
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
		shards:  shards,
		shardOf: make([]int32, len(shardOf)),
		unbound: len(shardOf),
		lanes:   make([][]shardSeg, shards),
		live:    make([]shardLive, shards),
		gates:   make([]gate, shards),
		spin:    shards <= runtime.GOMAXPROCS(0),

		dispatchMask: make([]bool, shards),
	}
	for i, s := range shardOf {
		if s < 0 || s >= shards {
			panic(fmt.Sprintf("sim: component %d assigned to shard %d of %d", i, s, shards))
		}
		sh.shardOf[i] = int32(s)
		if k.active[i] != Parked {
			sh.live[s].word.Store(1)
		}
	}
	// The flags and sh.live take over from the serial idle count and summary
	// bitmap (the sharded step never takes the sparse walk).
	k.idle = 0
	k.actWords = k.actWords[:0]
	k.sh = sh
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

// Shards returns the worker-shard count (0 on the serial path).
func (k *Kernel) Shards() int {
	if k.sh == nil {
		return 0
	}
	return k.sh.shards
}

// Close shuts down the sharded worker pool and returns once every worker
// has exited, whether it was spinning or parked. Stepping a closed kernel
// panics; Close on a serial kernel is a no-op. Safe to call more than once,
// and after a Step that panicked and was recovered: a worker still running
// the abandoned phase takes the close once it is through.
func (k *Kernel) Close() {
	sh := k.sh
	if sh == nil || sh.closed {
		return
	}
	sh.closed = true
	for s := 1; s < sh.shards; s++ {
		sh.gates[s].post(gateClose)
	}
	sh.workers.Wait()
}

// anyLive reports whether any shard may have a raised component.
func (sh *sharding) anyLive() bool {
	for s := range sh.live {
		if sh.live[s].word.Load() != 0 {
			return true
		}
	}
	return false
}

// raiseAll marks every shard that owns components live (every flag was
// raised).
func (sh *sharding) raiseAll() {
	for s := range sh.live {
		if len(sh.lanes[s]) != 0 {
			sh.live[s].word.Store(1)
		}
	}
}

// settle recomputes shard s's live word from the flags of its lanes, with an
// early exit at the first raised one. The owner calls it after a commit walk
// that put something to sleep; a walk that did not cannot have changed the
// answer.
func (sh *sharding) settle(k *Kernel, s int) {
	live := uint32(0)
scan:
	for _, g := range sh.lanes[s] {
		for _, f := range k.active[g.start:g.end] {
			if f != Parked {
				live = 1
				break scan
			}
		}
	}
	sh.live[s].word.Store(live)
}

// raise is the sharded Wake/Arrive: safe from any worker goroutine during
// the compute phase. The load keeps the common not-parked case to one read;
// raising is idempotent per state and every raiser of a phase stores the
// same state (Arrive inside a step, Wake outside one), so concurrent raisers
// of one component need no arbitration. The flag and the shard's live word
// are stored only on their own 0→raised edges: many workers load them, few
// ever have to write.
func (sh *sharding) raise(k *Kernel, h Handle, to uint32) {
	if atomic.LoadUint32(&k.active[h]) != Parked {
		return
	}
	atomic.StoreUint32(&k.active[h], to)
	if word := &sh.live[sh.shardOf[h]].word; word.Load() == 0 {
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
	if sh.unbound != 0 {
		panic(fmt.Sprintf("sim: sharded Step with %d components outside every shard lane (bind each with BindShardLane)", sh.unbound))
	}
	if !sh.anyLive() {
		// Fully quiescent: pure clock advance, same as the serial path.
		return
	}
	sh.dispatch(k, phaseCompute)
	sh.dispatch(k, phaseCommit)
}

// dispatch fans one phase out to every shard that has work, running the
// first working shard inline on the stepping goroutine, and waits for the
// barrier. Idleness is re-read per phase: a compute-phase Arrive can hand
// work to a shard that was fully idle when the cycle started.
func (sh *sharding) dispatch(k *Kernel, phase int) {
	inline := -1
	n := 0
	mask := sh.dispatchMask
	for s := 0; s < sh.shards; s++ {
		w := sh.live[s].word.Load() != 0
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

// shardSeg is one typed segment of a shard's walk: a lane over components
// the shard owns, handles [start, end).
type shardSeg struct {
	lane       Lane
	start, end int
}

// BindShardLane installs a typed lane over the components at handles
// [start, start+lane.Len()), all of which must belong to the given shard. It
// is BindLane for the sharded step: the same Lane implementations serve
// both, because a shard's routers and interfaces are contiguous handle
// ranges. Bind a shard's lanes in ascending handle order, after SetSharding
// and before the first Step, until every component is covered: the shards
// walk nothing else.
func (k *Kernel) BindShardLane(shard int, start Handle, lane Lane) {
	sh := k.sh
	if sh == nil {
		panic("sim: BindShardLane on a kernel that is not sharded")
	}
	if k.stepping {
		panic("sim: BindShardLane called during Step")
	}
	n := lane.Len()
	if n == 0 {
		return
	}
	seg := shardSeg{lane: lane, start: int(start), end: int(start) + n}
	if shard < 0 || shard >= sh.shards || seg.start < 0 || seg.end > len(k.components) {
		panic("sim: BindShardLane shard or range outside the kernel")
	}
	list := &sh.lanes[shard]
	if n := len(*list); n > 0 && (*list)[n-1].end > seg.start {
		panic("sim: BindShardLane ranges overlap or are out of order")
	}
	for h := seg.start; h < seg.end; h++ {
		if int(sh.shardOf[h]) != shard {
			panic(fmt.Sprintf("sim: BindShardLane covers component %d of shard %d, not %d", h, sh.shardOf[h], shard))
		}
	}
	*list = append(*list, seg)
	sh.unbound -= n
}

// runShard executes one phase of one shard: its lanes in handle order, with
// the kernel's quiescence bookkeeping done inline by the lanes and folded
// into the shard's live word once per cycle. Runs on a worker goroutine (or
// inline on the stepping goroutine for the first working shard).
func (k *Kernel) runShard(s, phase int) {
	sh := k.sh
	cycle := k.cycle
	quiets := 0
	for _, g := range sh.lanes[s] {
		flags := k.active[g.start:g.end]
		if phase == phaseCompute {
			g.lane.ComputeActive(cycle, flags)
		} else {
			quiets += g.lane.CommitActive(cycle, flags)
		}
	}
	if quiets != 0 {
		sh.settle(k, s)
	}
}

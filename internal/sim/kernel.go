package sim

import (
	"fmt"
	"math/bits"
)

// oracleViolation is the panic payload of a quiescence-contract breach
// caught by the SetOracle checker; it implements error so tests can assert on
// it.
type oracleViolation struct {
	comp  int
	cycle int64
}

func (v oracleViolation) Error() string {
	return fmt.Sprintf("sim: component %d mutated state while parked at cycle %d (quiescence contract violation)", v.comp, v.cycle)
}

// Clocked is implemented by every component that participates in the
// synchronous two-phase simulation. Each cycle the kernel first calls
// Compute on every component (all components observe the state as it was at
// the start of the cycle and stage their actions), then Commit on every
// component (staged actions are applied and become visible at the next
// cycle). This models edge-triggered hardware without ordering artifacts:
// no component ever observes another component's same-cycle updates.
//
// The Compute contract — read only committed state, stage into storage you
// own (a component may also stage onto a channel it is the sole driver of,
// e.g. Link.Send) — is what makes the compute phase embarrassingly
// parallel: see SetSharding.
type Clocked interface {
	// Compute stages the component's actions for the given cycle based on
	// the committed state from the previous cycle.
	Compute(cycle int64)
	// Commit applies the actions staged by Compute and then, for a Latcher,
	// does what Latch does.
	Commit(cycle int64)
}

// Latcher is implemented by components that own input registers their
// neighbours stage into during the compute phase (a router's or interface's
// input channels). Latch takes in whatever was staged this cycle; it is the
// tail of Commit, callable on its own. The kernel calls it instead of Commit
// on a component that was parked when the input arrived (see Arrive): such a
// component's Compute did not run this cycle, so there is nothing staged of
// its own to apply, only input to take in.
type Latcher interface {
	Clocked
	Latch(cycle int64)
}

// Quiescable is implemented by components that can tell the kernel they are
// idle. Quiet must be a pure function of committed state, evaluated right
// after the component's Commit: it reports that stepping the component
// would change nothing observable until some neighbor writes to it again.
//
// A component reporting Quiet is dropped from the kernel's active set —
// its Compute and Commit stop being called — so the contract has a second
// half: whatever path a neighbor uses to hand the component new work must
// call the kernel's Arrive for it, or Wake when the work is handed over
// between steps (the owner that wires components together installs those
// hooks; see internal/network). A component that goes quiet with latent
// staged state, or that is written without a wake, silently diverges from
// the oracle's eager evaluation (SetOracle) — keep Quiet conservative.
type Quiescable interface {
	Clocked
	// Quiet reports that the component holds no pending work.
	Quiet() bool
}

// Handle identifies a registered component for Wake calls.
type Handle int

// Activity flag values (the elements of the slices a Lane's Active walks are
// handed). A component is parked (skipped), awake (computed and committed),
// or arrived: parked until a neighbour handed it input in the middle of this
// step. An arrived component is not computed — whether its compute slot had
// passed when the input came depends on registration order and, across
// shards, on timing, neither of which may show — and at its commit slot it
// only latches; the quiescence bookkeeping that follows either parks it again
// or leaves it awake for the next cycle.
const (
	Parked  = 0
	Awake   = 1
	Arrived = 2
)

// Kernel drives a set of Clocked components through synchronous cycles,
// skipping components that have declared themselves quiescent. It runs
// serially by default; SetSharding partitions the components across a
// persistent worker pool for intra-simulation parallelism with bit-exact
// results.
type Kernel struct {
	components []Clocked
	// quiesc[i] is components[i]'s Quiescable interface, nil if it does not
	// opt in (such components are evaluated every cycle forever).
	quiesc []Quiescable
	// latch[i] is components[i]'s Latcher interface, nil if it does not opt
	// in (an arrived component without one just becomes awake).
	latch []Latcher
	// active[i] is components[i]'s activity flag (Parked, Awake or Arrived).
	// Wake and Arrive may raise an entry mid-step; the walks read each flag
	// at visit time. Plain loads/stores on the serial path; on the sharded
	// path raising a flag is atomic — any worker may raise any component's
	// during the compute phase (see sharding.raise).
	active []uint32
	// actWords is a per-64-component summary bitmap over active, maintained
	// on the serial path only (empty once sharded). The invariant is one-sided:
	// every component with a raised flag has its bit set, but a bit may be
	// stale (component went quiet without clearing it) — the sparse walk
	// prunes stale bits lazily as it visits them.
	actWords []uint64
	// oracle, when set, switches the serial step into contract-checking
	// mode: every component is evaluated eagerly and any notionally-parked
	// component whose state hash changes across its evaluation went quiet
	// with latent work. See SetOracle.
	oracle  func(Handle) uint64
	oracleH []uint64
	// idle counts inactive components on the serial path; when it equals
	// len(components) a step is pure clock advance. The sharded path keeps a
	// per-shard summary instead (see sharding.live).
	idle  int
	cycle int64

	// stepping guards against reentrant stepping and mid-step registration:
	// observer/epilogue hooks and component methods must not call Step or
	// Add. The guard is always on — it costs two byte writes per step — so
	// contract violations fail loudly in every build.
	stepping bool

	// observers are called in order at the end of every Step with the
	// completed cycle and the number of components evaluated next step
	// (observability hooks; see internal/probe and internal/telemetry).
	observers []func(cycle int64, active int)
	// epilogue, when set, runs at the end of every Step before the observer,
	// on the stepping goroutine with all workers quiescent. The sharded
	// network uses it to drain per-shard delivery mailboxes
	// deterministically.
	epilogue func(cycle int64)

	// sh is the sharded execution state, nil on the serial path.
	sh *sharding

	// lanes are the typed walk of every shard (one on a serial kernel), each
	// shard's in ascending handle order; covered counts the components they
	// cover, which must be all of them by the first Step unless there is no
	// lane and the kernel is serial (see BindLane).
	lanes   []laneSeg
	covered int
}

// NewKernel returns an empty kernel at cycle 0.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Reset returns the kernel to the state NewKernel returns — cycle 0, no
// components, lanes, hooks or sharding — keeping the registration arrays and
// the lane and observer lists, emptied and zeroed, for the next Reserve: a
// network rebuilt on recycled storage registers its components with no
// allocation. The kernel must be serial or Closed, and nothing registered
// before may be stepped through it again.
func (k *Kernel) Reset() {
	if k.sh != nil && !k.sh.closed {
		panic("sim: Reset of a sharded kernel that is not Closed")
	}
	clear(k.components[:cap(k.components)])
	clear(k.quiesc[:cap(k.quiesc)])
	clear(k.latch[:cap(k.latch)])
	clear(k.active[:cap(k.active)])
	clear(k.actWords[:cap(k.actWords)])
	clear(k.lanes[:cap(k.lanes)])
	clear(k.observers[:cap(k.observers)])
	*k = Kernel{
		components: k.components[:0],
		quiesc:     k.quiesc[:0],
		latch:      k.latch[:0],
		active:     k.active[:0],
		actWords:   k.actWords[:0],
		lanes:      k.lanes[:0],
		observers:  k.observers[:0],
	}
}

// Add registers a component and returns its wake handle. Components are
// evaluated in registration order; compute order is not observable (two-
// phase protocol), but commit order is load-bearing for cross-component
// writes performed during commits (a router hands credits back to the
// interface it shares a tile with, and must commit before it), so
// registration order is preserved even when quiescent components are
// skipped — within a shard, on the sharded path.
func (k *Kernel) Add(c Clocked) Handle {
	if k.stepping {
		panic("sim: Add called during Step (hooks must not register components)")
	}
	if k.sh != nil {
		panic("sim: Add after SetSharding")
	}
	h := Handle(len(k.components))
	k.components = append(k.components, c)
	q, _ := c.(Quiescable)
	k.quiesc = append(k.quiesc, q)
	l, _ := c.(Latcher)
	k.latch = append(k.latch, l)
	k.active = append(k.active, Awake)
	if int(h)>>6 >= len(k.actWords) {
		k.actWords = append(k.actWords, 0)
	}
	k.actWords[h>>6] |= 1 << (h & 63)
	return h
}

// setAllBits raises every summary-bitmap bit, masking the tail word so no
// bit beyond the registered component count is ever set (the sparse walk
// indexes components directly from bit positions).
func (k *Kernel) setAllBits() {
	for i := range k.actWords {
		k.actWords[i] = ^uint64(0)
	}
	if tail := len(k.components) & 63; tail != 0 && len(k.actWords) > 0 {
		k.actWords[len(k.actWords)-1] = uint64(1)<<tail - 1
	}
}

// Wake re-activates a component so it is evaluated again, in full, from its
// next walk slot on; waking a component that is not parked is a no-op. It is
// the between-steps wake — injection, snapshot restore, the end-of-step
// hooks. A component that hands a neighbour input in the middle of a step
// calls Arrive instead.
//
// Concurrency contract: on the serial path Wake must be called from the
// stepping goroutine only. On the sharded path raising a flag is atomic, so
// Wake is legal from any goroutine while no step is in flight (the NI
// injection path).
func (k *Kernel) Wake(h Handle) { k.raise(h, Awake) }

// Arrive tells the kernel that component h was handed input in the middle of
// this step — a flit staged on one of its input channels, a credit count it
// parked on lifted off zero. A parked h becomes arrived: it is not computed
// this cycle, its Latch (not its Commit) runs at its commit slot, and it is
// awake from the next cycle on — in every walk, whatever the handle order of
// the two components and whichever shards they are on. On a component that
// is not parked Arrive is a no-op: its Commit latches anyway.
//
// During the compute phase any component may be the target, from any shard
// (the flag store is atomic and the compute walks skip parked and arrived
// alike). During the commit phase the target must be in the caller's shard
// with its commit slot still ahead: the one such edge is a router returning
// credits to its own tile's interface.
func (k *Kernel) Arrive(h int) { k.raise(Handle(h), Arrived) }

// raise moves a parked component to the given raised state.
func (k *Kernel) raise(h Handle, to uint32) {
	if sh := k.sh; sh != nil {
		sh.raise(k, h, to)
		return
	}
	if k.active[h] == Parked {
		k.active[h] = to
		k.actWords[h>>6] |= 1 << (h & 63)
		k.idle--
	}
}

// Stepping reports whether the kernel is inside Step. Observer hooks fire
// both at the end of every stepped cycle (stepping true) and once per cycle
// skipped by FastForward (stepping false); a hook that needs to Wake
// components — legal only when a real step's quiescence bookkeeping brackets
// the wake — checks this and arranges for the cycle to be stepped instead
// (see Network.fastForward).
func (k *Kernel) Stepping() bool { return k.stepping }

// SetObserver installs a hook called at the end of every Step with the
// completed cycle number and the active-component count, replacing any
// hooks installed so far. A nil fn removes them all. Hooks run on the
// stepping goroutine with all shard workers quiescent; they must not call
// Step or Add — the kernel's reentrancy guard panics if they do.
func (k *Kernel) SetObserver(fn func(cycle int64, active int)) {
	k.observers = k.observers[:0]
	k.AddObserver(fn)
}

// AddObserver appends an observer hook, keeping those already installed;
// hooks fire in installation order. A nil fn is ignored. The same
// contract as SetObserver applies.
func (k *Kernel) AddObserver(fn func(cycle int64, active int)) {
	if fn != nil {
		k.observers = append(k.observers, fn)
	}
}

// SetEpilogue installs a hook that runs at the end of every Step, before
// the observer, on the stepping goroutine with all shard workers quiescent.
// The sharded network drains its per-shard mailboxes here (deliveries in
// interface order) so every cross-shard effect lands deterministically.
// The same reentrancy contract as SetObserver applies.
func (k *Kernel) SetEpilogue(fn func(cycle int64)) {
	k.epilogue = fn
}

// ActiveComponents returns how many components will be evaluated next step.
// Only between steps (or from an observer hook).
func (k *Kernel) ActiveComponents() int {
	if k.sh != nil {
		// The sharded path keeps no count (see shardLive): sum the flags.
		// O(components), paid only when an observer or a caller asks.
		n := 0
		for _, f := range k.active {
			if f != Parked {
				n++
			}
		}
		return n
	}
	return len(k.components) - k.idle
}

// Parked reports whether component h is parked: skipped by the walks until
// something wakes it. Only between steps (or from an observer hook).
func (k *Kernel) Parked(h Handle) bool { return k.active[h] == Parked }

// Idle reports that every component is quiescent: a Step would be pure
// clock advance for any number of cycles, until something outside the step
// wakes a component. Always false on a kernel with no components.
func (k *Kernel) Idle() bool {
	if len(k.components) == 0 {
		return false
	}
	if k.sh != nil {
		return !k.sh.anyLive()
	}
	return k.idle == len(k.components)
}

// Cycle returns the number of completed cycles.
func (k *Kernel) Cycle() int64 {
	return k.cycle
}

// SetCycle forces the kernel clock, the snapshot-restore entry point: a
// restored network resumes at the cycle it was saved at. Must not be called
// mid-step.
func (k *Kernel) SetCycle(c int64) {
	if k.stepping {
		panic("sim: SetCycle during Step")
	}
	k.cycle = c
}

// WakeAll re-activates every component. Snapshot restore uses it instead of
// reconstructing the saved activity set: over-waking is unobservable (the
// quiescence fast path is proven bit-exact against the oracle's eager
// evaluation, so evaluating a quiet component changes nothing), and the true
// set re-converges within a cycle. Works serial and sharded.
func (k *Kernel) WakeAll() {
	if k.stepping {
		panic("sim: WakeAll during Step")
	}
	for i := range k.active {
		k.active[i] = Awake
	}
	k.setAllBits()
	k.idle = 0
	if k.sh != nil {
		k.sh.raiseAll()
	}
}

// Step advances the simulation by one cycle.
func (k *Kernel) Step() {
	if k.stepping {
		panic("sim: Step called reentrantly (observer/epilogue hooks must not step the kernel)")
	}
	if k.covered != len(k.components) && (k.sh != nil || len(k.lanes) != 0) {
		panic(fmt.Sprintf("sim: Step with %d components outside every lane (bind each with BindLane)", len(k.components)-k.covered))
	}
	k.stepping = true
	if k.sh != nil {
		k.stepSharded()
	} else {
		k.stepSerial()
	}
	if k.epilogue != nil {
		k.epilogue(k.cycle)
	}
	if len(k.observers) > 0 {
		active := k.ActiveComponents()
		for _, o := range k.observers {
			o(k.cycle, active)
		}
	}
	k.cycle++
	k.stepping = false
}

// sparseRatio picks the serial walk: when fewer than one component in
// sparseRatio is active, the summary-bitmap walk (word loads plus bit
// iteration over just the active set) beats the flag-scan walk, which
// touches every component's flag twice per cycle however few are awake. A
// performance knob only — both walks are bit-identical (the sparse walk
// visits exactly the raised-flag set in registration order, with the same
// flag-at-visit-time wake semantics). In the dense regime the check is a
// single compare, so the sparse walk costs ~0 there.
const sparseRatio = 16

// stepSerial is the single-goroutine step: the reference semantics the
// sharded executor reproduces bit for bit. The dense walk is shard 0's lanes
// (see lane.go), or the plain component loops when no lane is bound.
func (k *Kernel) stepSerial() {
	if k.oracle != nil {
		k.stepOracle()
		return
	}
	switch n := len(k.components); {
	case k.idle == n:
		// Fully quiescent network: the cycle is pure clock advance. Wakes
		// only arrive from outside the step (injection), so nothing can need
		// evaluation mid-step.
	case (n-k.idle)*sparseRatio <= n:
		k.walkSparse()
	case len(k.lanes) == 0:
		k.walkClocked()
	default:
		k.walkLanes(0, phaseCompute)
		k.idle += k.walkLanes(0, phaseCommit)
	}
}

// walkSparse is the light-load walk: both phases iterate the summary
// bitmap instead of scanning every flag. Bits are a superset of the raised
// flags (see actWords); a bit whose flag turns out clear is pruned in
// passing. Flags raised mid-phase land in the words being walked: one for
// a not-yet-visited position is picked up this phase (bits above the visit
// cursor), one for an already-passed position waits for the next cycle —
// exactly the flag-at-visit-time semantics of the dense walks. Lane segments
// are bypassed: at sparse activity the devirtualized batch loops have no
// edge over a handful of generic dispatches.
func (k *Kernel) walkSparse() {
	cycle := k.cycle
	for w := range k.actWords {
		visited := uint64(0)
		for {
			word := k.actWords[w] &^ visited
			if word == 0 {
				break
			}
			b := bits.TrailingZeros64(word)
			bit := uint64(1) << b
			visited |= bit
			i := w<<6 + b
			switch k.active[i] {
			case Awake:
				k.components[i].Compute(cycle)
			case Parked:
				k.actWords[w] &^= bit
			}
		}
	}
	for w := range k.actWords {
		visited := uint64(0)
		for {
			word := k.actWords[w] &^ visited
			if word == 0 {
				break
			}
			b := bits.TrailingZeros64(word)
			bit := uint64(1) << b
			visited |= bit
			i := w<<6 + b
			k.commitOne(i, cycle)
			if k.active[i] == Parked {
				k.actWords[w] &^= bit
			}
		}
	}
}

// Run advances the simulation by n cycles.
func (k *Kernel) Run(n int64) {
	for i := int64(0); i < n; i++ {
		k.Step()
	}
}

// FastForward advances the clock up to n cycles without evaluating any
// component. It is only legal — and only has an effect — while the kernel
// is fully quiescent: a quiescent step is pure clock advance, so skipping
// the component walk is unobservable. Per-cycle hooks (epilogue, observer)
// still fire for every skipped cycle, keeping probed output byte-identical
// to stepping; with no hooks installed the advance is O(1). Returns the
// cycles actually skipped (0 if the kernel is busy).
func (k *Kernel) FastForward(n int64) int64 {
	if n <= 0 || !k.Idle() {
		return 0
	}
	if k.epilogue == nil && len(k.observers) == 0 {
		k.cycle += n
		return n
	}
	for i := int64(0); i < n; i++ {
		if k.epilogue != nil {
			k.epilogue(k.cycle)
		}
		for _, o := range k.observers {
			o(k.cycle, 0)
		}
		k.cycle++
	}
	return n
}

// SetOracle arms the serial kernel's quiescence-contract checker, the
// kernel's one reference stepper. hash must return a digest of component h's
// externally visible state (any collision-resistant fold of its committed
// fields). While armed, every step evaluates every component eagerly through
// the Clocked interface, bypassing lanes and parking — the always-evaluate
// semantics every faster walk must reproduce — but keeps the notional active
// set's bookkeeping. A component the fast path would have skipped (parked
// quiet) is hashed before its Compute and after its Commit: the contract
// says evaluating it must be a state no-op, so a differing hash means it
// went quiet with latent work — the silent-divergence bug class — and the
// kernel panics naming the component. Debug mode: serial kernels only, and
// the eager evaluation costs the full per-cycle walk. Pass nil to disarm.
func (k *Kernel) SetOracle(hash func(Handle) uint64) {
	if k.stepping {
		panic("sim: SetOracle during Step")
	}
	if k.sh != nil {
		panic("sim: SetOracle on a sharded kernel (the oracle is serial-only)")
	}
	k.oracle = hash
	if hash != nil && k.oracleH == nil {
		k.oracleH = make([]uint64, len(k.components))
	}
}

// stepOracle is the contract-checking step (see SetOracle): eager evaluation
// of every component with hash checks around the notionally-parked ones.
func (k *Kernel) stepOracle() {
	cycle := k.cycle
	// Hash every notionally-parked component before the cycle touches it.
	// The flags only rise mid-step (bookkeeping that clears them happens at
	// each component's own commit visit, below), so a component whose flag
	// is still clear at its commit visit was hashed here.
	for i := range k.components {
		if k.active[i] == Parked {
			k.oracleH[i] = k.oracle(Handle(i))
		}
	}
	// Eager: parked and arrived components are computed too. By the very
	// contract under test that stages nothing, so an arrived one still only
	// has input to latch at its commit slot.
	for _, c := range k.components {
		c.Compute(cycle)
	}
	for i, c := range k.components {
		if k.active[i] != Parked {
			k.commitOne(i, cycle)
			continue
		}
		c.Commit(cycle)
		if got := k.oracle(Handle(i)); got != k.oracleH[i] {
			panic(oracleViolation{comp: i, cycle: cycle})
		}
	}
}

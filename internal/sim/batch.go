package sim

import "math/bits"

// LockstepGroup steps many structurally identical serial kernels through the
// same cycles together — the batched many-seed execution mode. Where one
// kernel walks its own components with a per-component activity byte, the
// group transposes that hot state into structure-of-arrays form: for each
// component index (column) it keeps one machine word per 64 member
// simulations whose bit s is simulation s's activity flag, and one
// contiguous row of the N simulations' component objects. A step then walks
// columns, not simulations: one pass over a router column touches all N
// simulations' instances back to back, and a column whose activity word is
// zero — a router idle in every member at once — is skipped with a single
// load, however wide the batch. That bit-sliced skip is what makes the
// common sparse regimes (warm-up ramps, post-burst decay, drain tails) cost
// one word op per column instead of N flag checks. When activity is dense
// the step switches walks: each member's own serial step — typed lanes,
// devirtualized dispatch, per-member cache locality — runs against flags
// synced from the shared words (see Step and denseThreshold).
//
// Lockstep changes iteration mechanics only, never semantics. Each member's
// components are visited in its own registration order within every phase
// (columns ascend), all computes globally precede all commits (members are
// mutually independent, so interleaving across members is unobservable), the
// quiescence bookkeeping is the serial kernel's bit for bit, and each
// member's epilogue/observer hooks fire once per cycle on the stepping
// goroutine exactly as its own Step would have fired them. The equivalence
// suites in internal/batch pin byte-identical results against independent
// serial runs.
//
// Adopted kernels hand their stepping to the group: Kernel.Step, Add and
// BindLane panic until Release. Wake and Arrive keep working — they are
// redirected into the group's activity words — so injection paths and link
// wake wiring are untouched. FastForward and the read-only accessors
// (Cycle, FullyIdle, ActiveComponents) also keep working; the group's Park
// uses them to let finished members drop out of lockstep.
type LockstepGroup struct {
	kernels []*Kernel
	width   int // member count
	words   int // activity words per column: ceil(width/64)
	comps   int // components per member

	// cols[c*width+s] is member s's component c: the transposed
	// (component-major) view the step walks. qcols/hcols are the matching
	// Quiescable and Horizoned views, nil where a component does not opt in.
	cols  []Clocked
	qcols []Quiescable
	hcols []Horizoned

	// active[c*words+w] packs the activity flags of components[c] across
	// members 64*w .. 64*w+63. Bit set = raised (awake or arrived); arrived
	// is the second bit plane telling the two apart, set only on top of an
	// active bit.
	active  []uint64
	arrived []uint64

	// parked[w] marks members released from lockstep (finished runs). Their
	// activity bits are preserved but masked out of every walk, their hooks
	// stop firing, and their clocks stop advancing.
	parked  []uint64
	nparked int

	// alwaysActive mirrors the members' reference mode (uniform across the
	// group, checked at construction): commit phases skip the quiescence
	// bookkeeping exactly like the serial reference walk.
	alwaysActive bool

	// sliced records which activity representation is current: true when the
	// transposed bit words are authoritative (the column walk's format),
	// false when each member kernel's own u32 flag array is (the dense
	// walk's format — the serial step's native representation). The two are
	// reconciled only when the step switches walks, so runs that stay in one
	// regime pay no per-cycle translation at all. The idle counters are
	// maintained identically in both representations.
	sliced bool

	stepping bool
}

// NewLockstepGroup adopts the given kernels into one lockstep group. All
// members must be serial (not sharded), structurally identical (same
// component count), in the same quiescence mode, at the same cycle, and not
// already adopted; violations panic — the batch layer constructs members
// from one template, so a mismatch is a wiring bug, not an input error.
func NewLockstepGroup(kernels []*Kernel) *LockstepGroup {
	if len(kernels) == 0 {
		panic("sim: NewLockstepGroup with no kernels")
	}
	first := kernels[0]
	g := &LockstepGroup{
		kernels:      kernels,
		width:        len(kernels),
		words:        (len(kernels) + 63) / 64,
		comps:        len(first.components),
		alwaysActive: first.alwaysActive,
	}
	for _, k := range kernels {
		switch {
		case k.sh != nil:
			panic("sim: NewLockstepGroup member is sharded (batch across, shard within needs the fallback path)")
		case k.group != nil:
			panic("sim: NewLockstepGroup member already adopted")
		case k.stepping:
			panic("sim: NewLockstepGroup during Step")
		case len(k.components) != g.comps:
			panic("sim: NewLockstepGroup members differ in component count")
		case k.alwaysActive != g.alwaysActive:
			panic("sim: NewLockstepGroup members differ in quiescence mode")
		case k.cycle != first.cycle:
			panic("sim: NewLockstepGroup members differ in cycle")
		}
	}
	g.cols = make([]Clocked, g.comps*g.width)
	g.qcols = make([]Quiescable, g.comps*g.width)
	g.hcols = make([]Horizoned, g.comps*g.width)
	g.active = make([]uint64, g.comps*g.words)
	g.arrived = make([]uint64, g.comps*g.words)
	g.parked = make([]uint64, g.words)
	for s, k := range kernels {
		for c := 0; c < g.comps; c++ {
			g.cols[c*g.width+s] = k.components[c]
			g.qcols[c*g.width+s] = k.quiesc[c]
			g.hcols[c*g.width+s] = k.hzn[c]
		}
		k.group = g
		k.slot = s
	}
	// Members arrive serial, so their own u32 flag arrays are current: start
	// in the dense representation and transpose lazily on the first sparse
	// step.
	g.sliced = false
	return g
}

// raise is the adopted-kernel Wake/Arrive path: move the member's parked
// component to the given raised state in whichever representation is current
// and keep that member's idle counter balanced, so Kernel.FullyIdle and
// ActiveComponents stay truthful while adopted.
func (g *LockstepGroup) raise(slot int, h Handle, to uint32) {
	k := g.kernels[slot]
	if !g.sliced {
		if k.active[h] == Parked {
			k.active[h] = to
			k.actWords[h>>6] |= 1 << (h & 63)
			k.idle--
		}
		return
	}
	idx := int(h)*g.words + slot>>6
	bit := uint64(1) << (slot & 63)
	if g.active[idx]&bit == 0 {
		g.active[idx] |= bit
		if to == Arrived {
			g.arrived[idx] |= bit
		}
		k.idle--
	}
}

// wakeAll is the adopted-kernel WakeAll path: set every one of the member's
// activity flags in whichever representation is current and zero its idle
// counter. Used by snapshot restore when state is loaded into an already
// adopted cohort member.
func (g *LockstepGroup) wakeAll(k *Kernel) {
	if !g.sliced {
		k.wakeAllFlags()
	} else {
		w, bit := k.slot>>6, uint64(1)<<(k.slot&63)
		for c := 0; c < g.comps; c++ {
			g.active[c*g.words+w] |= bit
			g.arrived[c*g.words+w] &^= bit
		}
		k.idle = 0
	}
	if k.wheel != nil {
		k.wheel.reset(k.cycle)
	}
}

// ensureFlags makes each member's own u32 flag array the current activity
// representation (the dense walk's format), transposing the bit words out if
// they were authoritative.
func (g *LockstepGroup) ensureFlags() {
	if !g.sliced {
		return
	}
	words := g.words
	for s, k := range g.kernels {
		w, bit := s>>6, uint64(1)<<(s&63)
		for c := 0; c < g.comps; c++ {
			switch {
			case g.active[c*words+w]&bit == 0:
				k.active[c] = Parked
				continue
			case g.arrived[c*words+w]&bit != 0:
				k.active[c] = Arrived
			default:
				k.active[c] = Awake
			}
			k.actWords[c>>6] |= 1 << (c & 63)
		}
	}
	g.sliced = false
}

// ensureBits makes the transposed bit words the current activity
// representation (the column walk's format), folding each member's u32 flags
// in if they were authoritative.
func (g *LockstepGroup) ensureBits() {
	if g.sliced {
		return
	}
	words := g.words
	for s, k := range g.kernels {
		w, bit := s>>6, uint64(1)<<(s&63)
		for c := 0; c < g.comps; c++ {
			idx := c*words + w
			g.active[idx] &^= bit
			g.arrived[idx] &^= bit
			if k.active[c] != Parked {
				g.active[idx] |= bit
			}
			if k.active[c] == Arrived {
				g.arrived[idx] |= bit
			}
		}
	}
	g.sliced = true
}

// Width returns the member count.
func (g *LockstepGroup) Width() int { return g.width }

// Parked reports whether member s has been parked.
func (g *LockstepGroup) Parked(s int) bool {
	return g.parked[s>>6]&(uint64(1)<<(s&63)) != 0
}

// Park drops member s out of lockstep: its components stop being evaluated,
// its hooks stop firing, and its clock stops advancing — the batched
// equivalent of a serial run that simply stopped stepping. Parking is
// one-way; a finished member's state (and its diverged clock, if the owner
// fast-forwarded it) no longer participates in the group invariants.
func (g *LockstepGroup) Park(s int) {
	if g.stepping {
		panic("sim: Park during Step")
	}
	w, bit := s>>6, uint64(1)<<(s&63)
	if g.parked[w]&bit == 0 {
		g.parked[w] |= bit
		g.nparked++
	}
}

// AllIdle reports that every unparked member is fully quiescent: a Step
// would be pure clock advance for the whole group, so the owner may
// fast-forward members in bulk instead.
func (g *LockstepGroup) AllIdle() bool {
	if g.nparked == g.width {
		return true
	}
	for s, k := range g.kernels {
		if g.parked[s>>6]&(uint64(1)<<(s&63)) != 0 {
			continue
		}
		if !k.FullyIdle() {
			return false
		}
	}
	return true
}

// denseThreshold picks the step walk: when the cohort averages at least one
// active component per denseThreshold columns per live member, the
// member-major dense walk (each member's own lane-devirtualized serial step)
// beats the bit-sliced column walk, whose per-column word skip only pays off
// when almost everything is asleep. Switching representations costs a full
// width x columns reconciliation, so the decision has 2x hysteresis: a dense
// group goes sliced only once density falls below half the entry threshold.
// The crossover was measured on the 8x8 sweep benchmark; it is a performance
// knob only — both walks produce identical results.
const denseThreshold = 24

// denseWalk reports whether the next step should take the member-major dense
// path instead of the bit-sliced column walk.
func (g *LockstepGroup) denseWalk() bool {
	if g.alwaysActive {
		return false
	}
	live, total := 0, 0
	for s, k := range g.kernels {
		if g.parked[s>>6]&(uint64(1)<<(s&63)) == 0 {
			live++
			total += g.comps - k.idle
		}
	}
	if g.sliced {
		return total*denseThreshold >= g.comps*live
	}
	return total*denseThreshold*2 >= g.comps*live
}

// Step advances every unparked member by one cycle in lockstep, then fires
// each member's end-of-step hooks in member order. The evaluation walk is
// chosen by activity density: sparse regimes (warm-up ramps, post-burst
// decay, drain tails) take the bit-sliced column walk, whose zero-word skip
// costs one load per column however wide the batch; dense regimes take the
// member-major walk, which runs each member's own serial step — typed lanes,
// devirtualized dispatch, per-member cache locality — against activity flags
// synced from the shared bit words. Members are mutually independent, so the
// cross-member interleaving difference between the walks is unobservable;
// per member, both visit components in registration order with identical
// flag-at-visit-time wake semantics.
func (g *LockstepGroup) Step() {
	if g.stepping {
		panic("sim: LockstepGroup.Step called reentrantly")
	}
	g.stepping = true
	for _, k := range g.kernels {
		if k.stepping {
			panic("sim: LockstepGroup.Step during a member Step")
		}
		k.stepping = true
	}
	cycle := g.cycle()

	// Pop due timed wakes per unparked member before sizing the walk: fired
	// wakes raise activity through g.wake in whichever representation is
	// current, so both the density decision and the walks see them.
	for s, k := range g.kernels {
		if g.parked[s>>6]&(uint64(1)<<(s&63)) != 0 {
			continue
		}
		if k.wheel != nil && k.wheel.len() != 0 {
			k.wheel.popDue(cycle, k)
		}
	}

	if g.denseWalk() {
		g.ensureFlags()
		g.stepDense()
	} else {
		g.ensureBits()
		g.stepSliced(cycle)
	}

	// End-of-step hooks and clock advance, member-major: each member sees
	// exactly the sequence its own serial Step would have produced.
	for s, k := range g.kernels {
		k.stepping = false
		if g.parked[s>>6]&(uint64(1)<<(s&63)) != 0 {
			continue
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
	}
	g.stepping = false
}

// stepDense is the member-major walk (flags representation current): each
// unparked member is temporarily detached — so Wake takes the serial path
// against the kernel's own flag array — and its serial step runs verbatim:
// lane segments, devirtualized dispatch, quiescence bookkeeping, idle
// counter and all. The walk is the exact machine code a standalone run
// executes, which is what closes the dispatch and locality gap against
// per-member serial execution; members are independent, so completing one
// member's cycle before starting the next is unobservable.
func (g *LockstepGroup) stepDense() {
	for s, k := range g.kernels {
		if g.parked[s>>6]&(uint64(1)<<(s&63)) != 0 {
			continue
		}
		k.group = nil
		k.stepSerial()
		k.group = g
	}
}

// stepSliced is the bit-sliced column walk: a column-major compute phase,
// then a column-major commit phase with the serial kernel's quiescence
// bookkeeping performed on the shared words.
func (g *LockstepGroup) stepSliced(cycle int64) {
	width, words := g.width, g.words
	// Compute phase: column-major, bit-sliced. The activity word is read at
	// visit time, so a wake staged by an earlier column this phase is
	// honored — exactly the serial walk's flag-at-visit semantics — and
	// arrived components are left out, as there.
	for c := 0; c < g.comps; c++ {
		row := g.cols[c*width : (c+1)*width]
		for w := 0; w < words; w++ {
			word := g.active[c*words+w] &^ g.arrived[c*words+w] &^ g.parked[w]
			for ; word != 0; word &= word - 1 {
				row[w<<6+bits.TrailingZeros64(word)].Compute(cycle)
			}
		}
	}
	// Commit phase: the walk over raised bits plus quiescence bookkeeping — an
	// arrived component latches, any other commits, and one that then reports
	// quiet drops its bit and its member's idle counter rises, identical to
	// the serial commitOne.
	if g.alwaysActive {
		for c := 0; c < g.comps; c++ {
			row := g.cols[c*width : (c+1)*width]
			for w := 0; w < words; w++ {
				word := g.active[c*words+w] &^ g.parked[w]
				for ; word != 0; word &= word - 1 {
					row[w<<6+bits.TrailingZeros64(word)].Commit(cycle)
				}
			}
		}
	} else {
		for c := 0; c < g.comps; c++ {
			row := g.cols[c*width : (c+1)*width]
			qrow := g.qcols[c*width : (c+1)*width]
			hrow := g.hcols[c*width : (c+1)*width]
			for w := 0; w < words; w++ {
				word := g.active[c*words+w] &^ g.parked[w]
				for ; word != 0; word &= word - 1 {
					s := w<<6 + bits.TrailingZeros64(word)
					if bit := uint64(1) << (s & 63); g.arrived[c*words+w]&bit != 0 {
						g.arrived[c*words+w] &^= bit
						if l := g.kernels[s].latch[c]; l != nil {
							l.Latch(cycle)
						}
					} else {
						row[s].Commit(cycle)
					}
					if q := qrow[s]; q != nil && q.Quiet() {
						g.active[c*words+w] &^= uint64(1) << (s & 63)
						g.kernels[s].idle++
						continue
					}
					// Horizon parking, identical to the serial commitOne;
					// the timed wake lands in the member's own wheel.
					if hz := hrow[s]; hz != nil {
						if at := hz.Horizon(cycle); at > cycle+1 {
							g.active[c*words+w] &^= uint64(1) << (s & 63)
							g.kernels[s].idle++
							if at != Never {
								g.kernels[s].wheel.schedule(at, Handle(c))
							}
						}
					}
				}
			}
		}
	}
}

// cycle returns the common cycle of the unparked members (parked members may
// have diverged via FastForward and are ignored).
func (g *LockstepGroup) cycle() int64 {
	for s, k := range g.kernels {
		if g.parked[s>>6]&(uint64(1)<<(s&63)) == 0 {
			return k.cycle
		}
	}
	return g.kernels[0].cycle
}

// Release dissolves the group: every member's own activity flags are made
// current (written back from the shared words if those were authoritative)
// and the member kernels resume normal operation (Step, Add, BindLane work
// again). The group must not be used afterwards. Parked members are restored
// too — their owner decides what to do with them.
func (g *LockstepGroup) Release() {
	if g.stepping {
		panic("sim: Release during Step")
	}
	g.ensureFlags()
	for _, k := range g.kernels {
		k.group = nil
		k.slot = 0
	}
}

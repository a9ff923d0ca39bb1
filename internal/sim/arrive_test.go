package sim

import (
	"sync/atomic"
	"testing"
)

// Evaluation marks a traced relay or bell leaves per cycle.
const (
	evCompute = 1 << iota
	evCommit
	evLatch
)

// tracedRelay is a relay that records, per cycle, which of its methods the
// kernel called (the latch inside relay.Commit is part of evCommit).
type tracedRelay struct {
	relay
	ev []uint8
}

func (r *tracedRelay) Compute(cycle int64) { r.ev[cycle] |= evCompute; r.relay.Compute(cycle) }
func (r *tracedRelay) Commit(cycle int64)  { r.ev[cycle] |= evCommit; r.relay.Commit(cycle) }
func (r *tracedRelay) Latch(cycle int64)   { r.ev[cycle] |= evLatch; r.relay.Latch(cycle) }

// latcherLane is a typed lane over any mix of quiescable latchers, written
// to the Lane contract the way the production lanes are.
type latcherLane []interface {
	Quiescable
	Latcher
}

func (l latcherLane) Len() int { return len(l) }
func (l latcherLane) ComputeActive(cycle int64, flags []uint32) {
	for i, c := range l {
		if atomic.LoadUint32(&flags[i]) == Awake {
			c.Compute(cycle)
		}
	}
}
func (l latcherLane) CommitActive(cycle int64, flags []uint32) int {
	quiets := 0
	for i, c := range l {
		switch flags[i] {
		case Parked:
			continue
		case Arrived:
			flags[i] = Awake
			c.Latch(cycle)
		default:
			c.Commit(cycle)
		}
		if c.Quiet() {
			flags[i] = Parked
			quiets++
		}
	}
	return quiets
}

// awakeLane is a typed lane over components that never park.
type awakeLane []Clocked

func (l awakeLane) Len() int { return len(l) }
func (l awakeLane) ComputeActive(cycle int64, flags []uint32) {
	for i, c := range l {
		if atomic.LoadUint32(&flags[i]) == Awake {
			c.Compute(cycle)
		}
	}
}
func (l awakeLane) CommitActive(cycle int64, flags []uint32) int {
	for i, c := range l {
		if flags[i] != Parked {
			flags[i] = Awake
			c.Commit(cycle)
		}
	}
	return 0
}

// wakeRig is one way of stepping the relay ring of buildRelays.
type wakeRig struct {
	name   string
	shards int  // 0 serial
	lanes  bool // bind typed lanes over every component (sharded: required)
	// pads appends always-quiet components and awake ones that never park,
	// steering the serial step into its sparse or its dense walk.
	parkedPads, awakePads int
}

const wakeRigCycles = 80

// build returns a kernel stepped per rig and the traced components' marks,
// relays first.
func (rig wakeRig) build() (*Kernel, [][]uint8) {
	const n = 13
	k := NewKernel()
	relays := make([]*tracedRelay, n)
	var marks [][]uint8
	var lane latcherLane
	var shardOf []int
	for i := range relays {
		relays[i] = &tracedRelay{relay: relay{k: k, work: i % 3, fuel: 2 + i%4}, ev: make([]uint8, wakeRigCycles)}
		b := &bell{}
		k.Add(relays[i])
		relays[i].bellH = int(k.Add(b))
		lane = append(lane, relays[i], b)
		marks = append(marks, relays[i].ev)
		shardOf = append(shardOf, i*max(rig.shards, 1)/n, i*max(rig.shards, 1)/n)
	}
	for i, r := range relays {
		j := (i*5 + 3) % n
		r.down, r.downH = &relays[j].relay, 2*j
	}
	for i := 0; i < rig.parkedPads; i++ {
		b := &bell{}
		k.Add(b)
		lane = append(lane, b)
		shardOf = append(shardOf, max(rig.shards, 1)-1)
	}
	pads, shards := 2*n+rig.parkedPads, max(rig.shards, 1)
	var awake awakeLane
	for i := 0; i < rig.awakePads; i++ {
		awake = append(awake, &hostile{})
		k.Add(awake[i])
		shardOf = append(shardOf, shards-1)
	}
	if rig.shards > 0 {
		k.SetSharding(rig.shards, shardOf)
	}
	if rig.lanes {
		for s, from := 0, 0; s < shards; s++ {
			to := from
			for to < pads && shardOf[to] == s {
				to++
			}
			k.BindLane(s, Handle(from), lane[from:to])
			from = to
		}
		k.BindLane(shards-1, Handle(pads), awake)
	}
	return k, marks
}

// run steps the rig for wakeRigCycles and returns the marks and how many
// steps took the serial sparse walk.
func (rig wakeRig) run() (marks [][]uint8, sparse int) {
	k, marks := rig.build()
	defer k.Close()
	for c := 0; c < wakeRigCycles; c++ {
		if n := len(k.components); rig.shards == 0 && k.idle != 0 && k.idle != n && (n-k.idle)*sparseRatio <= n {
			sparse++
		}
		k.Step()
	}
	return marks, sparse
}

// TestWakeCycleOnlyLatches: a component handed input while parked only
// latches in that cycle's commit and is first computed the cycle after — in
// every walk the kernel has, with the sender's handle below the sink's and
// above it, and across shard boundaries. The per-cycle evaluated sets
// (which of Compute, Commit, Latch ran on each component) must therefore be
// the same in all of them.
func TestWakeCycleOnlyLatches(t *testing.T) {
	ref := wakeRig{name: "serial dense, generic", awakePads: 8}
	want, sparse := ref.run()
	if sparse != 0 {
		t.Fatalf("the dense reference took the sparse walk %d times", sparse)
	}

	// The property itself, on the reference: a relay's cycle is a full
	// evaluation, a lone latch, or nothing; a lone latch is followed by a
	// full evaluation; and lone latches happen downstream of senders on both
	// sides of the handle order.
	below, above := 0, 0
	for j, ev := range want {
		up := -1
		for i := range want {
			if (i*5+3)%len(want) == j {
				up = i
			}
		}
		for c, m := range ev {
			switch m {
			case 0, evCompute | evCommit:
			case evLatch:
				if c+1 < len(ev) && ev[c+1] != evCompute|evCommit {
					t.Errorf("relay %d latched input at cycle %d and was not evaluated at %d (marks %03b)", j, c, c+1, ev[c+1])
				}
				if up < j {
					below++
				} else {
					above++
				}
			default:
				t.Errorf("relay %d cycle %d: marks %03b — neither a full evaluation nor a lone latch", j, c, m)
			}
		}
	}
	if below == 0 || above == 0 {
		t.Fatalf("lone latches with the sender below the sink: %d, above: %d — the rig must produce both", below, above)
	}

	for _, rig := range []wakeRig{
		{name: "serial sparse, generic", parkedPads: 600},
		{name: "serial dense, lanes", lanes: true, awakePads: 8},
		{name: "serial sparse, lanes", lanes: true, parkedPads: 600},
		{name: "2 shards, lanes", shards: 2, lanes: true},
		{name: "7 shards, lanes", shards: 7, lanes: true},
	} {
		got, sparse := rig.run()
		if wantSparse := rig.parkedPads != 0; (sparse != 0) != wantSparse {
			t.Errorf("%s: took the sparse walk %d times", rig.name, sparse)
		}
		for j := range want {
			for c := range want[j] {
				if got[j][c] != want[j][c] {
					t.Fatalf("%s: relay %d cycle %d marks %03b, reference %03b", rig.name, j, c, got[j][c], want[j][c])
				}
			}
		}
	}
}

package sim

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// ticker is an always-evaluated early component that checks the barrier
// from the inside: at its commit every component of every shard must have
// finished this cycle's compute, so its peer (registered in the next shard)
// has computed exactly as often as it has. The peer read is a plain load —
// under -race this is also the happens-before proof of the barrier.
type ticker struct {
	computes, commits int
	peer              *ticker
	bad               int
}

func (c *ticker) Compute(cycle int64) { c.computes++ }
func (c *ticker) Commit(cycle int64) {
	if c.peer.computes != c.computes {
		c.bad++
	}
	c.commits++
}

// tocker is the late counterpart: at its commit every early commit of the
// cycle is done.
type tocker struct {
	commits int
	early   *ticker
	bad     int
}

func (c *tocker) Compute(cycle int64) {}
func (c *tocker) Commit(cycle int64) {
	c.commits++
	if c.early.commits != c.commits {
		c.bad++
	}
}

// barrierRig is shards x (one ticker, one pulse quiescer, one tocker), each
// triple on its own shard, peers chained around the ring of shards.
type barrierRig struct {
	k       *Kernel
	tickers []*ticker
	pulses  []*quiescer
	pulseH  []Handle
	tockers []*tocker
}

func newBarrierRig(shards int, sharded bool) *barrierRig {
	r := &barrierRig{k: NewKernel()}
	var shardOf []int
	for s := 0; s < shards; s++ {
		r.tickers = append(r.tickers, &ticker{})
		r.k.Add(r.tickers[s])
		r.pulses = append(r.pulses, &quiescer{})
		r.pulseH = append(r.pulseH, r.k.Add(r.pulses[s]))
		shardOf = append(shardOf, s, s)
	}
	for s := 0; s < shards; s++ {
		r.tickers[s].peer = r.tickers[(s+1)%shards]
		r.tockers = append(r.tockers, &tocker{early: r.tickers[(s+1)%shards]})
		r.k.AddLate(r.tockers[s])
		shardOf = append(shardOf, s)
	}
	if sharded {
		r.k.SetSharding(shards, shardOf)
	}
	return r
}

// step runs one cycle; every seventh it hands one pulse two cycles of work
// from the stepping goroutine, the way injection wakes an interface.
func (r *barrierRig) step(i int) {
	if i%7 == 0 {
		s := (i / 7) % len(r.pulses)
		r.pulses[s].pending += 2
		r.k.Wake(r.pulseH[s])
	}
	r.k.Step()
}

// TestBarrierStress drives the spin-then-park barrier for 10^5 cycles over
// 2, 3 and 8 shards — whatever GOMAXPROCS is, so the spinning, parking and
// oversubscribed regimes all come up under `-cpu 1,2,4` — with idle gaps
// long enough to cost every waiter budget, which force it through the park
// path and back. Every component must have been evaluated exactly once per phase
// per cycle, every in-phase check of the barrier must have held, and the
// quiescence-driven components must match a serial twin count for count.
func TestBarrierStress(t *testing.T) {
	for _, tc := range []struct{ shards, steps int }{{2, 60000}, {3, 25000}, {8, 15000}} {
		steps := tc.steps
		if testing.Short() {
			steps /= 10
		}
		r, ref := newBarrierRig(tc.shards, true), newBarrierRig(tc.shards, false)
		for i := 0; i < steps; i++ {
			if i%(steps/4) == steps/8 {
				time.Sleep(2 * spinLong)
			}
			r.step(i)
			ref.step(i)
		}
		r.k.Close()
		for s := range r.tickers {
			tk, tc2, p, pref := r.tickers[s], r.tockers[s], r.pulses[s], ref.pulses[s]
			if tk.computes != steps || tk.commits != steps || tc2.commits != steps {
				t.Errorf("shards=%d shard %d: ticker %d/%d tocker %d evaluations, want %d each",
					tc.shards, s, tk.computes, tk.commits, tc2.commits, steps)
			}
			if tk.bad != 0 || tc2.bad != 0 {
				t.Errorf("shards=%d shard %d: %d early and %d late commits ran before the previous phase finished",
					tc.shards, s, tk.bad, tc2.bad)
			}
			if p.computes != pref.computes || p.commits != pref.commits {
				t.Errorf("shards=%d shard %d: pulse evaluated %d/%d times, serial %d/%d",
					tc.shards, s, p.computes, p.commits, pref.computes, pref.commits)
			}
		}
	}
}

// waitFor polls cond for up to two seconds.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

func (sh *sharding) allParked() bool {
	for s := 1; s < sh.shards; s++ {
		if sh.gates[s].parked.Load() == 0 {
			return false
		}
	}
	return true
}

// TestBarrierRestsParked: a kernel at rest costs nothing. Some time after
// its last Step — the spin cap, plus scheduling — every worker is blocked
// on its channel, not spinning; Close returns from that state and from the
// state right after a burst of steps (workers mid-spin when GOMAXPROCS
// allows spinning at all), and either way the goroutines are gone.
func TestBarrierRestsParked(t *testing.T) {
	base := runtime.NumGoroutine()
	gone := func() bool { return runtime.NumGoroutine() <= base }
	for _, rest := range []bool{true, false} {
		r := newBarrierRig(2, true)
		for i := 0; i < 5000; i++ {
			r.step(i)
		}
		if rest {
			start := time.Now()
			if !waitFor(r.k.sh.allParked) {
				t.Fatal("a worker is still not parked two seconds after the last Step")
			}
			t.Logf("workers parked %v after the last Step (spin budget %v)", time.Since(start), r.k.sh.gates[1].budget)
		}
		r.k.Close()
		if !waitFor(gone) {
			t.Errorf("rest=%v: %d goroutines after Close, %d before the kernel existed", rest, runtime.NumGoroutine(), base)
		}
	}
}

// TestBarrierNeverSpinsOversubscribed: with more shards than GOMAXPROCS a
// spinner could hold the CPU its worker needs, so no budget is ever granted.
func TestBarrierNeverSpinsOversubscribed(t *testing.T) {
	shards := runtime.GOMAXPROCS(0) + 1
	r := newBarrierRig(shards, true)
	defer r.k.Close()
	for i := 0; i < 2000; i++ {
		r.step(i)
	}
	sh := r.k.sh
	if sh.spin {
		t.Fatalf("spin enabled with %d shards on %d procs", shards, runtime.GOMAXPROCS(0))
	}
	if sh.done.budget != 0 {
		t.Errorf("stepping goroutine earned a spin budget of %v", sh.done.budget)
	}
	for s := 1; s < shards; s++ {
		if b := sh.gates[s].budget; b != 0 {
			t.Errorf("worker %d earned a spin budget of %v", s, b)
		}
	}
}

// quiescerLane is a typed lane over quiescers, the stand-in for a router or
// link lane: a contiguous one reads flags[i], a scattered one flags[at[i]].
// Unlike a production late lane it reads its flags in the compute walk, to
// match the index-list walk count for count; the rigs that use it wake
// nothing during a phase, so nothing races that read.
type quiescerLane struct {
	qs []*quiescer
	at []int32
}

func (l *quiescerLane) flag(flags []uint32, i int) *uint32 {
	if l.at != nil {
		return &flags[l.at[i]]
	}
	return &flags[i]
}

func (l *quiescerLane) Len() int { return len(l.qs) }
func (l *quiescerLane) ComputeAll(cycle int64) {
	for _, q := range l.qs {
		q.Compute(cycle)
	}
}
func (l *quiescerLane) CommitAll(cycle int64) {
	for _, q := range l.qs {
		q.Commit(cycle)
	}
}
func (l *quiescerLane) ComputeActive(cycle int64, flags []uint32) {
	for i, q := range l.qs {
		if *l.flag(flags, i) != 0 {
			q.Compute(cycle)
		}
	}
}
func (l *quiescerLane) CommitActive(cycle int64, flags []uint32) int {
	quiets := 0
	for i, q := range l.qs {
		if f := l.flag(flags, i); *f != 0 {
			q.Commit(cycle)
			if q.Quiet() {
				*f = 0
				quiets++
			}
		}
	}
	return quiets
}

// laneRig registers 3 shards x 4 early quiescers in contiguous runs, then
// 12 late ones dealt round-robin (so each shard's late set is scattered),
// and optionally binds a lane over every run.
func laneRig(lanes bool) (*Kernel, []*quiescer) {
	const shards, per = 3, 4
	k := NewKernel()
	var qs []*quiescer
	var shardOf []int
	for i := 0; i < shards*per; i++ {
		qs = append(qs, &quiescer{pending: 1 + i%5})
		k.Add(qs[i])
		shardOf = append(shardOf, i/per)
	}
	for i := 0; i < shards*per; i++ {
		qs = append(qs, &quiescer{pending: 2 + i%3})
		k.AddLate(qs[shards*per+i])
		shardOf = append(shardOf, i%shards)
	}
	k.SetSharding(shards, shardOf)
	if lanes {
		for s := 0; s < shards; s++ {
			k.BindShardLane(s, Handle(s*per), &quiescerLane{qs: qs[s*per : (s+1)*per]})
			late := &quiescerLane{}
			for h := shards * per; h < len(qs); h++ {
				if shardOf[h] == s {
					late.qs = append(late.qs, qs[h])
					late.at = append(late.at, int32(h))
				}
			}
			k.BindShardLaneAt(s, late.at, late)
		}
	}
	return k, qs
}

// TestShardLaneWalk: the typed per-shard walk and the index-list walk are
// the same step — same evaluation counts per component, same active count
// after every cycle, including across re-wakes — and an eval hook sends a
// lane-bound kernel back down the index-list walk.
func TestShardLaneWalk(t *testing.T) {
	run := func(lanes, hook bool) (counts []int, active []int) {
		k, qs := laneRig(lanes)
		defer k.Close()
		var hooked atomic.Int64
		if hook {
			k.SetEvalHook(func(shard, phase, comp int) { hooked.Add(1) })
		}
		for cyc := 0; cyc < 20; cyc++ {
			if cyc == 9 {
				for h := 1; h < len(qs); h += 3 {
					qs[h].pending = 2
					k.Wake(Handle(h))
				}
			}
			k.Step()
			active = append(active, k.ActiveComponents())
		}
		for _, q := range qs {
			counts = append(counts, q.computes, q.commits)
		}
		if hook && hooked.Load() == 0 {
			t.Error("eval hook never ran on a lane-bound kernel")
		}
		if !k.FullyIdle() {
			t.Errorf("lanes=%v hook=%v: kernel not idle after 20 cycles", lanes, hook)
		}
		return counts, active
	}
	wantCounts, wantActive := run(false, false)
	for _, mode := range []struct{ lanes, hook bool }{{true, false}, {true, true}} {
		counts, active := run(mode.lanes, mode.hook)
		for i := range wantCounts {
			if counts[i] != wantCounts[i] {
				t.Fatalf("lanes=%v hook=%v: evaluation count %d is %d, index-list walk %d", mode.lanes, mode.hook, i, counts[i], wantCounts[i])
			}
		}
		for i := range wantActive {
			if active[i] != wantActive[i] {
				t.Fatalf("lanes=%v hook=%v: %d active after cycle %d, index-list walk %d", mode.lanes, mode.hook, active[i], i, wantActive[i])
			}
		}
	}
}

// TestBindShardLaneValidation pins the binding checks: a lane may cover only
// its own shard's components, of one commit class, in ascending order.
func TestBindShardLaneValidation(t *testing.T) {
	lane := func(n int) Lane { return &quiescerLane{qs: make([]*quiescer, n)} }
	k, _ := laneRig(false)
	defer k.Close()
	mustPanic(t, "foreign component", func() { k.BindShardLane(0, 2, lane(4)) })
	mustPanic(t, "early and late in one lane", func() { k.BindShardLane(2, 8, lane(5)) })
	mustPanic(t, "handle count mismatch", func() { k.BindShardLaneAt(0, []int32{12, 15}, lane(3)) })
	mustPanic(t, "descending handles", func() { k.BindShardLaneAt(0, []int32{15, 12}, lane(2)) })
	k.BindShardLane(1, 6, lane(2))
	mustPanic(t, "out of order", func() { k.BindShardLane(1, 4, lane(2)) })
	serial := NewKernel()
	serial.Add(&quiescer{})
	mustPanic(t, "serial kernel", func() { serial.BindShardLane(0, 0, lane(1)) })
}

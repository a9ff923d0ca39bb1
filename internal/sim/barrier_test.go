package sim

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// ticker is an always-evaluated component that checks both barriers from the
// inside: at its commit every component of every shard must have finished
// this cycle's compute, so its peer (registered in the next shard) has
// computed exactly as often as it has, and at its compute every commit of
// the cycle before is done. The peer reads are plain loads — under -race
// this is also the happens-before proof of the barrier.
type ticker struct {
	computes, commits int
	peer              *ticker
	bad               int
}

func (c *ticker) Compute(cycle int64) {
	if c.peer.commits != c.commits {
		c.bad++
	}
	c.computes++
}
func (c *ticker) Commit(cycle int64) {
	if c.peer.computes != c.computes {
		c.bad++
	}
	c.commits++
}

// Quiet and Latch make a ticker lane material (latcherLane): it never parks,
// and nothing hands it input.
func (c *ticker) Quiet() bool       { return false }
func (c *ticker) Latch(cycle int64) {}

// barrierRig is shards x (one ticker, one pulse quiescer), each pair on its
// own shard in a lane apiece, peers chained around the ring of shards. The
// serial twin walks them generically.
type barrierRig struct {
	k       *Kernel
	tickers []*ticker
	pulses  []*quiescer
	pulseH  []Handle
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
	}
	if sharded {
		r.k.SetSharding(shards, shardOf)
		for s := 0; s < shards; s++ {
			r.k.BindLane(s, Handle(2*s), latcherLane{r.tickers[s]})
			r.k.BindLane(s, r.pulseH[s], quiescerLane{r.pulses[s]})
		}
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
			tk, p, pref := r.tickers[s], r.pulses[s], ref.pulses[s]
			if tk.computes != steps || tk.commits != steps {
				t.Errorf("shards=%d shard %d: ticker %d/%d evaluations, want %d each",
					tc.shards, s, tk.computes, tk.commits, steps)
			}
			if tk.bad != 0 {
				t.Errorf("shards=%d shard %d: %d phases ran before the previous one finished",
					tc.shards, s, tk.bad)
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

// quiescerLane is a typed lane over quiescers, the stand-in for a router
// lane.
type quiescerLane []*quiescer

func (l quiescerLane) Len() int { return len(l) }
func (l quiescerLane) ComputeActive(cycle int64, flags []uint32) {
	for i, q := range l {
		if atomic.LoadUint32(&flags[i]) == Awake {
			q.Compute(cycle)
		}
	}
}
func (l quiescerLane) CommitActive(cycle int64, flags []uint32) int {
	quiets := 0
	for i, q := range l {
		switch flags[i] {
		case Parked:
			continue
		case Arrived:
			flags[i] = Awake // a quiescer has no input to latch
		default:
			q.Commit(cycle)
		}
		if q.Quiet() {
			flags[i] = Parked
			quiets++
		}
	}
	return quiets
}

// laneRig registers 3 shards x 8 quiescers in contiguous runs on a serial
// kernel, or on a sharded one, with two lanes bound over every run unless
// bare.
func laneRig(sharded, bare bool) (*Kernel, []*quiescer) {
	const shards, per = 3, 8
	k := NewKernel()
	var qs []*quiescer
	var shardOf []int
	for i := 0; i < shards*per; i++ {
		qs = append(qs, &quiescer{pending: 1 + i%5})
		k.Add(qs[i])
		shardOf = append(shardOf, i/per)
	}
	if !sharded {
		return k, qs
	}
	k.SetSharding(shards, shardOf)
	if !bare {
		for s := 0; s < shards; s++ {
			k.BindLane(s, Handle(s*per), quiescerLane(qs[s*per:s*per+3]))
			k.BindLane(s, Handle(s*per+3), quiescerLane(qs[s*per+3:(s+1)*per]))
		}
	}
	return k, qs
}

// TestShardLaneWalk: the typed per-shard walk and the serial kernel's
// generic walk are the same step — same evaluation counts per component,
// same active count after every cycle, including across re-wakes.
func TestShardLaneWalk(t *testing.T) {
	run := func(sharded bool) (counts []int, active []int) {
		k, qs := laneRig(sharded, false)
		defer k.Close()
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
		if !k.Idle() {
			t.Errorf("sharded=%v: kernel not idle after 20 cycles", sharded)
		}
		return counts, active
	}
	wantCounts, wantActive := run(false)
	counts, active := run(true)
	for i := range wantCounts {
		if counts[i] != wantCounts[i] {
			t.Fatalf("evaluation count %d is %d, serial walk %d", i, counts[i], wantCounts[i])
		}
	}
	for i := range wantActive {
		if active[i] != wantActive[i] {
			t.Fatalf("%d active after cycle %d, serial walk %d", active[i], i, wantActive[i])
		}
	}
}

// TestBindShardLaneValidation pins BindLane's checks: a lane may cover only
// its own shard's components, in ascending order, a serial kernel has shard 0
// only, and a kernel with a component outside every lane, serial or sharded,
// refuses to step.
func TestBindShardLaneValidation(t *testing.T) {
	lane := func(n int) Lane { return make(quiescerLane, n) }
	k, _ := laneRig(true, true)
	defer k.Close()
	mustPanic(t, "foreign component", func() { k.BindLane(0, 6, lane(4)) })
	mustPanic(t, "past the last component", func() { k.BindLane(2, 20, lane(5)) })
	mustPanic(t, "past the last shard", func() { k.BindLane(3, 0, lane(1)) })
	k.BindLane(1, 12, lane(2))
	mustPanic(t, "out of order", func() { k.BindLane(1, 10, lane(2)) })
	mustPanic(t, "overlap", func() { k.BindLane(1, 13, lane(2)) })
	serial := NewKernel()
	serial.Add(&quiescer{})
	mustPanic(t, "serial kernel, shard 1", func() { serial.BindLane(1, 0, lane(1)) })
	serial.BindLane(0, 0, lane(1))
	mustPanic(t, "serial overlap", func() { serial.BindLane(0, 0, lane(1)) })

	// A partial cover, serial and on one shard (so no worker outlives the
	// refused step).
	for _, sharded := range []bool{false, true} {
		part := NewKernel()
		part.Add(&quiescer{})
		part.Add(&quiescer{})
		if sharded {
			part.SetSharding(1, []int{0, 0})
		}
		part.BindLane(0, 0, lane(1))
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "outside every lane") {
					t.Errorf("sharded=%v: Step with an unbound component: panic %q, want the unbound-lane refusal", sharded, msg)
				}
			}()
			part.Step()
		}()
	}
}

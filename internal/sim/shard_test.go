package sim

import (
	"sync"
	"testing"
)

// mustPanic runs fn and fails the test unless it panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// hostile is a Clocked whose hooks poke the kernel in forbidden ways.
type hostile struct {
	onCompute func()
}

func (h *hostile) Compute(cycle int64) {
	if h.onCompute != nil {
		h.onCompute()
	}
}
func (h *hostile) Commit(cycle int64) {}

// TestReentrancyGuard pins the hook contract: observers and component
// methods must not step the kernel or register components mid-step.
func TestReentrancyGuard(t *testing.T) {
	t.Run("StepFromObserver", func(t *testing.T) {
		k := NewKernel()
		k.Add(&hostile{})
		k.SetObserver(func(cycle int64, active int) { k.Step() })
		mustPanic(t, "Step from observer", k.Step)
	})
	t.Run("StepFromEpilogue", func(t *testing.T) {
		k := NewKernel()
		k.Add(&hostile{})
		k.SetEpilogue(func(cycle int64) { k.Step() })
		mustPanic(t, "Step from epilogue", k.Step)
	})
	t.Run("AddDuringStep", func(t *testing.T) {
		k := NewKernel()
		k.Add(&hostile{onCompute: func() { k.Add(&hostile{}) }})
		mustPanic(t, "Add during Step", k.Step)
	})
	t.Run("AddAfterSetSharding", func(t *testing.T) {
		k := NewKernel()
		k.Add(&hostile{})
		k.SetSharding(1, []int{0})
		defer k.Close()
		mustPanic(t, "Add after SetSharding", func() { k.Add(&hostile{}) })
	})
}

// TestSetShardingValidation pins the partition sanity checks.
func TestSetShardingValidation(t *testing.T) {
	mk := func() *Kernel {
		k := NewKernel()
		k.Add(&quiescer{})
		k.Add(&quiescer{})
		return k
	}
	mustPanic(t, "zero shards", func() { mk().SetSharding(0, []int{0, 0}) })
	mustPanic(t, "length mismatch", func() { mk().SetSharding(2, []int{0}) })
	mustPanic(t, "out-of-range shard", func() { mk().SetSharding(2, []int{0, 2}) })
	k := mk()
	k.SetSharding(2, []int{0, 1})
	defer k.Close()
	mustPanic(t, "double SetSharding", func() { k.SetSharding(2, []int{0, 1}) })
}

// TestStepAfterClosePanics: a closed worker pool cannot step.
func TestStepAfterClosePanics(t *testing.T) {
	k := NewKernel()
	k.Add(&quiescer{pending: 3})
	k.SetSharding(1, []int{0})
	k.Close()
	k.Close() // idempotent
	mustPanic(t, "Step after Close", k.Step)
}

// TestFastForward pins the bulk clock advance: no effect while busy, pure
// advance while idle, per-cycle hook replay when hooks are installed.
func TestFastForward(t *testing.T) {
	k := NewKernel()
	q := &quiescer{pending: 2}
	k.Add(q)
	if got := k.FastForward(10); got != 0 {
		t.Fatalf("FastForward on a busy kernel skipped %d cycles, want 0", got)
	}
	k.Run(3) // q quiet after 2 cycles
	if !k.Idle() {
		t.Fatal("kernel not idle after drain")
	}
	start := k.Cycle()
	if got := k.FastForward(50); got != 50 {
		t.Fatalf("FastForward skipped %d cycles, want 50", got)
	}
	if k.Cycle() != start+50 {
		t.Fatalf("cycle = %d, want %d", k.Cycle(), start+50)
	}
	if q.computes != 2 {
		t.Fatalf("FastForward evaluated components: %d computes, want 2", q.computes)
	}

	// With hooks installed the advance replays them every skipped cycle, in
	// epilogue-then-observer order, with active == 0.
	var cycles []int64
	k.SetEpilogue(func(cycle int64) { cycles = append(cycles, cycle) })
	k.SetObserver(func(cycle int64, active int) {
		if active != 0 {
			t.Fatalf("observer saw %d active components during fast-forward", active)
		}
		if n := len(cycles); n == 0 || cycles[n-1] != cycle {
			t.Fatalf("observer at cycle %d did not follow its epilogue (%v)", cycle, cycles)
		}
	})
	before := k.Cycle()
	if got := k.FastForward(7); got != 7 {
		t.Fatalf("hooked FastForward skipped %d cycles, want 7", got)
	}
	if len(cycles) != 7 || cycles[0] != before || cycles[6] != before+6 {
		t.Fatalf("epilogue cycles = %v, want %d..%d", cycles, before, before+6)
	}
}

// relay is the channel pattern in miniature. It owns an input register its
// one upstream stages into during the compute phase (with an Arrive, as
// Link.Send does) and latches it at the end of its commit; while it holds
// work and fuel it forwards a unit downstream each cycle, and without fuel
// it burns one. When its work runs out it tells the bell registered right
// after it, from its commit — the router-returns-credits-to-its-interface
// edge, the one commit-phase Arrive there is.
type relay struct {
	k          *Kernel
	down       *relay
	downH      int
	bellH      int
	staged     int // input register: written by upstream's Compute, taken by Latch
	work, fuel int
	sent       bool

	computes, commits, latches int
}

func (r *relay) Compute(cycle int64) {
	r.computes++
	if r.work > 0 && r.fuel > 0 {
		r.down.staged++
		r.k.Arrive(r.downH)
		r.sent = true
	}
}

func (r *relay) Commit(cycle int64) {
	r.commits++
	if r.work > 0 {
		r.work--
		if r.sent {
			r.fuel--
		}
		if r.work == 0 {
			r.k.Arrive(r.bellH)
		}
	}
	r.sent = false
	r.Latch(cycle)
}

func (r *relay) Latch(cycle int64) {
	r.latches++
	r.work += r.staged
	r.staged = 0
}

func (r *relay) Quiet() bool { return r.work == 0 }

// bell is always quiet: every evaluation it ever gets after the first cycle
// is the Latch of an Arrive.
type bell struct{ computes, commits, latches int }

func (b *bell) Compute(cycle int64) { b.computes++ }
func (b *bell) Commit(cycle int64)  { b.commits++ }
func (b *bell) Latch(cycle int64)   { b.latches++ }
func (b *bell) Quiet() bool         { return true }

// buildRelays wires n relay+bell pairs into a kernel: relay i feeds relay
// (i*5+3)%n, so upstream handles lie both below and above their sinks', and
// with shards > 0 pair i lives on shard i%shards, in a lane of its own, so
// most edges cross a boundary. Returns the kernel plus the components for
// inspection.
func buildRelays(n, shards int) (*Kernel, []*relay, []*bell) {
	k := NewKernel()
	relays := make([]*relay, n)
	bells := make([]*bell, n)
	var shardOf []int
	for i := range relays {
		relays[i] = &relay{k: k, work: i % 3, fuel: 2 + i%4}
		bells[i] = &bell{}
		k.Add(relays[i])
		relays[i].bellH = int(k.Add(bells[i]))
		shardOf = append(shardOf, i%max(shards, 1), i%max(shards, 1))
	}
	for i, r := range relays {
		j := (i*5 + 3) % n
		r.down, r.downH = relays[j], 2*j
	}
	if shards > 0 {
		k.SetSharding(shards, shardOf)
		for i := range relays {
			k.BindLane(i%shards, Handle(2*i), latcherLane{relays[i], bells[i]})
		}
	}
	return k, relays, bells
}

// TestShardedToyEquivalence runs the relay workload — compute-phase Arrives
// across shards in both handle directions, commit-phase Arrives inside one —
// serial and at several shard counts, and requires identical per-component
// evaluation counts and identical final state. Run under -race this also
// proves the Arrive path and the phase barrier are data-race free.
func TestShardedToyEquivalence(t *testing.T) {
	const n = 13
	type snapshot struct {
		counts []int
		active int
		cycle  int64
	}
	run := func(shards int) snapshot {
		k, relays, bells := buildRelays(n, shards)
		defer k.Close()
		k.Run(60)
		var s snapshot
		for i := range relays {
			r, b := relays[i], bells[i]
			s.counts = append(s.counts, r.computes, r.commits, r.latches, r.work, r.fuel, b.computes, b.commits, b.latches)
		}
		s.active = k.ActiveComponents()
		s.cycle = k.Cycle()
		return s
	}
	want := run(0) // serial reference
	if want.active != 0 {
		t.Fatalf("reference run did not quiesce: %d active", want.active)
	}
	arrivals := 0
	for i := 0; i < n; i++ {
		arrivals += want.counts[8*i+7] - want.counts[8*i+6]
	}
	if arrivals == 0 {
		t.Fatal("reference run never latched a bell: the commit-phase Arrive is not exercised")
	}
	for _, shards := range []int{1, 2, 3, 5, 13} {
		got := run(shards)
		if got.cycle != want.cycle || got.active != want.active {
			t.Errorf("shards=%d: cycle/active = %d/%d, want %d/%d", shards, got.cycle, got.active, want.cycle, want.active)
		}
		for i := range want.counts {
			if got.counts[i] != want.counts[i] {
				t.Fatalf("shards=%d: pair %d count %d is %d, serial %d", shards, i/8, i%8, got.counts[i], want.counts[i])
			}
		}
	}
}

// TestShardedWakeCrossGoroutine asserts the documented Wake contract: on
// the sharded path Wake is atomic and legal from any goroutine (the NI
// injection path). Concurrent wakes of overlapping components must leave
// the idle accounting exact.
func TestShardedWakeCrossGoroutine(t *testing.T) {
	k := NewKernel()
	const n = 32
	handles := make([]Handle, n)
	lanes := make([]quiescerLane, n)
	for i := 0; i < n; i++ {
		lanes[i] = quiescerLane{{pending: 1}}
		handles[i] = k.Add(lanes[i][0])
	}
	shardOf := make([]int, n)
	for i := range shardOf {
		shardOf[i] = i % 4
	}
	k.SetSharding(4, shardOf)
	defer k.Close()
	for i, h := range handles {
		k.BindLane(i%4, h, lanes[i])
	}
	k.Run(3) // everything goes quiet
	if !k.Idle() {
		t.Fatalf("kernel not idle: %d active", k.ActiveComponents())
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Goroutines deliberately overlap on the same handles.
			for i := g % 2; i < n; i += 2 {
				k.Wake(handles[i])
			}
		}(g)
	}
	wg.Wait()
	if got := k.ActiveComponents(); got != n {
		t.Fatalf("after concurrent wakes %d components active, want %d", got, n)
	}
	k.Run(3)
	if !k.Idle() {
		t.Errorf("kernel did not re-quiesce: %d active", k.ActiveComponents())
	}
}

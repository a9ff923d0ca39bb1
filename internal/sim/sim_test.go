package sim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/alloctest"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(42).Uint64() == NewRNG(43).Uint64() {
		t.Error("adjacent seeds collide on first draw")
	}
}

func TestForkIndependence(t *testing.T) {
	base := NewRNG(1)
	r1 := base.Fork(0)
	r2 := base.Fork(1)
	same := 0
	for i := 0; i < 64; i++ {
		if r1.Uint64() == r2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("forked streams collide %d/64 times", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(7)
	f := func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean %v, want ~0.5", mean)
	}
}

// TestParetoProperties checks the Pareto draw respects its minimum and,
// for alpha=1.4 (the paper's self-similar shape), produces the heavy tail
// with the expected truncated-sample mean alpha*b/(alpha-1) = 3.5*b only
// approached slowly (we just sanity-check min and heavy-tailedness).
func TestParetoProperties(t *testing.T) {
	r := NewRNG(13)
	const alpha, b = 1.4, 8.0
	const n = 200000
	over4b := 0
	for i := 0; i < n; i++ {
		v := r.Pareto(alpha, b)
		if v < b {
			t.Fatalf("Pareto draw %v below scale %v", v, b)
		}
		if v > 4*b {
			over4b++
		}
	}
	// P(X > 4b) = 4^-alpha ~ 0.144 for alpha=1.4.
	frac := float64(over4b) / n
	if math.Abs(frac-math.Pow(4, -alpha)) > 0.01 {
		t.Errorf("tail mass beyond 4b = %v, want ~%v", frac, math.Pow(4, -alpha))
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := NewRNG(15)
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(17)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

// counter is a Clocked that verifies two-phase semantics: Compute must see
// the value from the previous commit.
type counter struct {
	val, staged int
	t           *testing.T
	expect      int
}

func (c *counter) Compute(cycle int64) {
	if c.val != int(cycle) {
		c.t.Fatalf("cycle %d: observed %d, two-phase violated", cycle, c.val)
	}
	c.staged = c.val + 1
}
func (c *counter) Commit(cycle int64) { c.val = c.staged }

func TestKernelTwoPhase(t *testing.T) {
	k := NewKernel()
	k.Add(&counter{t: t})
	k.Add(&counter{t: t})
	k.Run(10)
	if k.Cycle() != 10 {
		t.Fatalf("cycle = %d, want 10", k.Cycle())
	}
}

// runUntil is the drain loop every caller of the kernel writes (see
// Network.Drain): step while done is false and a component is busy, then
// jump the clock to the limit in one FastForward once the kernel is Idle.
func runUntil(k *Kernel, done func() bool, limit int64) bool {
	for k.Cycle() < limit && !done() {
		if k.FastForward(limit-k.Cycle()) == 0 {
			k.Step()
		}
	}
	return done()
}

// TestRunUntil pins the two kernel calls a drain loop stands on: Idle turns
// true exactly when the last component parks, and FastForward jumps an Idle
// kernel's clock in one call while refusing (0) whenever anything is awake.
func TestRunUntil(t *testing.T) {
	k := NewKernel()
	q := &quiescer{pending: 5}
	h := k.Add(q)
	if !runUntil(k, func() bool { return q.commits >= 3 }, 100) || k.Cycle() != 3 {
		t.Fatalf("stopped at cycle %d after %d commits, want cycle 3", k.Cycle(), q.commits)
	}
	if k.Idle() {
		t.Fatal("Idle with work pending")
	}
	if runUntil(k, func() bool { return false }, 40) || k.Cycle() != 40 {
		t.Fatalf("unsatisfiable run ended at cycle %d, want the limit 40", k.Cycle())
	}
	if !k.Idle() || q.computes != 5 {
		t.Fatalf("Idle=%v after %d evaluations, want parked after 5", k.Idle(), q.computes)
	}
	q.pending = 1
	k.Wake(h)
	if k.Idle() || k.FastForward(10) != 0 {
		t.Fatal("FastForward skipped cycles with a woken component")
	}
}

// quiescer is a Quiescable that counts evaluations and goes quiet after
// pending units of work are done.
type quiescer struct {
	pending  int
	computes int
	commits  int
}

func (q *quiescer) Compute(cycle int64) { q.computes++ }
func (q *quiescer) Commit(cycle int64) {
	q.commits++
	if q.pending > 0 {
		q.pending--
	}
}
func (q *quiescer) Quiet() bool { return q.pending == 0 }

func TestKernelSkipsQuiescent(t *testing.T) {
	k := NewKernel()
	q := &quiescer{pending: 3}
	k.Add(q)
	k.Run(10)
	// Evaluated while pending (3 cycles); the cycle it first reports quiet
	// is the third, after which it must be skipped.
	if q.computes != 3 || q.commits != 3 {
		t.Fatalf("evaluated %d/%d times, want 3/3", q.computes, q.commits)
	}
	if k.Cycle() != 10 {
		t.Fatalf("cycle = %d, want 10 (skipping must not stall the clock)", k.Cycle())
	}
	if k.ActiveComponents() != 0 {
		t.Fatalf("%d active components, want 0", k.ActiveComponents())
	}
}

func TestKernelWakeReactivates(t *testing.T) {
	k := NewKernel()
	q := &quiescer{pending: 1}
	h := k.Add(q)
	k.Run(5) // quiet after 1 cycle
	if q.computes != 1 {
		t.Fatalf("evaluated %d times before wake, want 1", q.computes)
	}
	q.pending = 2
	k.Wake(h)
	if k.ActiveComponents() != 1 {
		t.Fatal("Wake did not re-activate")
	}
	k.Run(5)
	if q.computes != 3 {
		t.Fatalf("evaluated %d times total, want 3", q.computes)
	}
	// A double wake is harmless.
	k.Wake(h)
	k.Wake(h)
	k.Run(1)
	if q.computes != 4 {
		t.Fatalf("evaluated %d times after a double wake, want 4", q.computes)
	}
}

// TestKernelAlwaysActive: the oracle, the kernel's reference stepper,
// evaluates every component every cycle, parked ones included, while the
// notional active set still parks them.
func TestKernelAlwaysActive(t *testing.T) {
	k := NewKernel()
	q := &quiescer{}
	k.Add(q)
	k.SetOracle(func(Handle) uint64 { return uint64(q.pending) })
	k.Run(10)
	if q.computes != 10 || q.commits != 10 {
		t.Fatalf("the oracle evaluated %d/%d times, want 10/10", q.computes, q.commits)
	}
	if n := k.ActiveComponents(); n != 0 {
		t.Fatalf("%d active under the oracle, want the quiet component parked", n)
	}
}

func TestKernelNonQuiescableAlwaysRuns(t *testing.T) {
	k := NewKernel()
	c := &counter{t: t}
	q := &quiescer{}
	k.Add(c)
	k.Add(q)
	k.Run(10)
	if c.val != 10 {
		t.Fatalf("plain Clocked ran %d cycles, want 10", c.val)
	}
	if k.ActiveComponents() != 1 {
		t.Fatalf("%d active, want 1 (the non-quiescable)", k.ActiveComponents())
	}
}

// wakeDuringCommit models the link pattern: component A (registered first)
// wakes component B (registered later) during A's commit; B must be
// evaluated in the same cycle's commit phase.
type wakeTarget struct {
	quiescer
	commitCycles []int64
}

func (w *wakeTarget) Commit(cycle int64) {
	w.quiescer.Commit(cycle)
	w.commitCycles = append(w.commitCycles, cycle)
}

type wakeSource struct {
	quiescer
	wake   func()
	wakeAt int64
}

func (w *wakeSource) Commit(cycle int64) {
	w.quiescer.Commit(cycle)
	if cycle == w.wakeAt {
		w.wake()
	}
}

func TestKernelSameCycleWakeOfLaterComponent(t *testing.T) {
	k := NewKernel()
	src := &wakeSource{quiescer: quiescer{pending: 8}, wakeAt: 6}
	tgt := &wakeTarget{}
	hs := k.Add(src)
	_ = hs
	ht := k.Add(tgt)
	src.wake = func() { k.Wake(ht) }
	k.Run(10)
	// Target quiesces immediately (cycle 0), then must recommit exactly at
	// the wake cycle — same cycle, because its commit slot follows the
	// source's.
	want := []int64{0, 6}
	if len(tgt.commitCycles) != len(want) || tgt.commitCycles[0] != want[0] || tgt.commitCycles[1] != want[1] {
		t.Fatalf("target commits at %v, want %v", tgt.commitCycles, want)
	}
}

// TestKernelStepAllocs: the serial walk — evaluate the awake components, park
// the ones that went quiet, wake one again — allocates nothing once the
// kernel is built; the network's zero-allocation loop stands on it.
func TestKernelStepAllocs(t *testing.T) {
	k := NewKernel()
	qs := make([]*quiescer, 64)
	hs := make([]Handle, len(qs))
	for i := range qs {
		qs[i] = &quiescer{pending: 1 + i%3}
		hs[i] = k.Add(qs[i])
	}
	next := 0
	if avg := alloctest.Allocs(200, alloctest.Same(func() {
		qs[next].pending = 2
		k.Wake(hs[next])
		next = (next + 7) % len(qs)
		k.Step()
	})); avg != 0 {
		t.Errorf("Wake+Step allocates %v allocs/op", avg)
	}
}

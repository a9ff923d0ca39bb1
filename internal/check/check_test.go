package check

import (
	"errors"
	"strings"
	"testing"
)

// TestNilCheckerSafe: every method on a nil *Checker must be a no-op — the
// disarmed hot path relies on it.
func TestNilCheckerSafe(t *testing.T) {
	var c *Checker
	c.OnInject(1, 1)
	c.OnDeliver(2, 1)
	c.Payload(1, 0, 1, 0, 1, 2)
	c.Misroute(1, 0, 1, 2)
	c.Sequence(1, 0, 1, "x")
	c.Decode(1, 0, 0, errors.New("x"))
	c.Mode(1, 0, 0, "x")
	c.Overflow(1, 0, 0, 1)
	c.Credit(1, 0, 1, 2)
	c.Arena(1, 3)
	c.Watchdog(1, "x")
	c.MarkLeaky()
	if c.Armed() || c.Leaky() || c.Total() != 0 || c.Injected() != 0 || c.Delivered() != 0 {
		t.Error("nil checker reported state")
	}
	if v := c.Violations(); v != nil {
		t.Errorf("nil checker returned violations: %v", v)
	}
	if lost, acc := c.Finalize(1, nil); lost != 0 || acc != 0 {
		t.Error("nil Finalize returned counts")
	}
	var sb strings.Builder
	c.WriteReport(&sb)
	if !strings.Contains(sb.String(), "not armed") {
		t.Errorf("nil report: %q", sb.String())
	}
}

// TestFamilyGating: violations outside the armed families are dropped; the
// watchdog records regardless.
func TestFamilyGating(t *testing.T) {
	c := New(Config{Delivery: true}) // protocol + conservation disarmed
	c.Payload(1, 0, 1, 0, 1, 2)
	c.Decode(1, 0, 0, errors.New("x"))
	c.Credit(1, 0, 1, 2)
	c.Watchdog(1, "wedged")
	counts := c.Counts()
	if counts[KindPayload] != 1 {
		t.Error("armed delivery violation dropped")
	}
	if counts[KindDecode] != 0 || counts[KindCredit] != 0 {
		t.Error("disarmed-family violations recorded")
	}
	if counts[KindWatchdog] != 1 {
		t.Error("watchdog violation gated away")
	}
}

// TestDeliveryOracle: Finalize classifies still-inflight packets as lost or
// accounted, deterministically, exactly once.
func TestDeliveryOracle(t *testing.T) {
	c := New(All())
	for id := uint64(1); id <= 5; id++ {
		c.OnInject(int64(id), id)
	}
	c.OnDeliver(10, 2)
	c.OnDeliver(11, 4)
	impacted := func(id uint64) bool { return id == 3 }
	lost, accounted := c.Finalize(100, impacted)
	if lost != 2 || accounted != 1 {
		t.Fatalf("Finalize = (%d lost, %d accounted), want (2, 1)", lost, accounted)
	}
	vs := c.Violations()
	if len(vs) != 2 || vs[0].Kind != KindLost || vs[1].Kind != KindLost {
		t.Fatalf("violations: %v", vs)
	}
	if vs[0].Packet != 1 || vs[1].Packet != 5 {
		t.Errorf("lost packets %d,%d want 1,5 (sorted)", vs[0].Packet, vs[1].Packet)
	}
	if l2, a2 := c.Finalize(200, impacted); l2 != 0 || a2 != 0 {
		t.Error("second Finalize rescanned")
	}
	if c.Total() != 2 {
		t.Errorf("total %d after idempotent finalize, want 2", c.Total())
	}
}

// TestViolationCapAndSorting: storage is capped (counts keep accumulating)
// and Violations returns a deterministically sorted copy.
func TestViolationCapAndSorting(t *testing.T) {
	c := New(Config{Delivery: true, MaxViolations: 3})
	c.Sequence(30, 2, 7, "c")
	c.Sequence(10, 1, 5, "a")
	c.Sequence(20, 0, 6, "b")
	c.Sequence(40, 3, 8, "overflowed")
	c.Sequence(50, 4, 9, "overflowed")
	if got := c.Total(); got != 5 {
		t.Errorf("total %d, want 5 (cap must not drop counts)", got)
	}
	vs := c.Violations()
	if len(vs) != 3 {
		t.Fatalf("stored %d, want cap 3", len(vs))
	}
	for i := 1; i < len(vs); i++ {
		if vs[i-1].Cycle > vs[i].Cycle {
			t.Fatalf("violations not sorted by cycle: %v", vs)
		}
	}
	var sb strings.Builder
	c.WriteReport(&sb)
	if !strings.Contains(sb.String(), "+2 further") {
		t.Errorf("report does not mention truncation:\n%s", sb.String())
	}
}

// TestFinalizeFormatsOnlyKeptLosses: the lost-packet scan builds a
// violation's detail text only when the violation is stored or observed. A
// run that loses far more packets than the storage cap keeps allocates a
// constant amount for the scan, not a formatted string per loss (1751
// allocations for the thousand losses here when every detail was built);
// the stored losses still carry their detail, and all are counted.
func TestFinalizeFormatsOnlyKeptLosses(t *testing.T) {
	const lost, keep = 1000, 4
	var checkers []*Checker
	for range 2 { // AllocsPerRun's warm-up call, then the measured one
		c := New(Config{Delivery: true, MaxViolations: keep})
		for id := uint64(1); id <= lost; id++ {
			c.OnInject(int64(id), id)
		}
		checkers = append(checkers, c)
	}
	next := 0
	allocs := testing.AllocsPerRun(1, func() {
		checkers[next].Finalize(5000, nil)
		next++
	})
	if allocs > 2*keep+8 {
		t.Errorf("Finalize of %d losses with %d kept allocated %v times, want no more than %d", lost, keep, allocs, 2*keep+8)
	}
	c := checkers[1]
	if vs := c.Violations(); len(vs) != keep || c.Total() != lost || !strings.Contains(vs[0].Detail, "never delivered") {
		t.Errorf("stored %d of %d counted losses, first %+v", len(vs), c.Total(), vs[0])
	}
	// An observer hears every loss, past the cap too, with its detail.
	o := New(Config{Delivery: true, MaxViolations: 1})
	o.OnInject(1, 1)
	o.OnInject(2, 2)
	detailed := 0
	o.SetObserver(func(v Violation) {
		if v.Detail != "" {
			detailed++
		}
	})
	if o.Finalize(10, nil); detailed != 2 {
		t.Errorf("observer heard %d detailed losses, want 2", detailed)
	}
}

// TestOverflowMarksLeaky: a swallowed overflow flit disables the
// arena-exactness expectation.
func TestOverflowMarksLeaky(t *testing.T) {
	c := New(All())
	if c.Leaky() {
		t.Fatal("fresh checker leaky")
	}
	c.Overflow(1, 0, 2, 7)
	if !c.Leaky() {
		t.Error("overflow did not mark the run leaky")
	}
}

func TestWatchdogProgress(t *testing.T) {
	var w Watchdog
	w.Window = 100
	w.Reset(0, 0)
	if _, tripped := w.Observe(99, 0); tripped {
		t.Error("tripped before the window elapsed")
	}
	if stalled, tripped := w.Observe(100, 0); !tripped || stalled != 100 {
		t.Errorf("Observe(100) = (%d, %v), want (100, true)", stalled, tripped)
	}
	// A delivery resets the clock.
	if _, tripped := w.Observe(150, 1); tripped {
		t.Error("tripped on the observation that made progress")
	}
	if _, tripped := w.Observe(249, 1); tripped {
		t.Error("tripped before a full window since last progress")
	}
	if _, tripped := w.Observe(250, 1); !tripped {
		t.Error("did not trip a full window after last progress")
	}
	// Window 0 disables the trip entirely.
	var off Watchdog
	off.Reset(0, 0)
	if _, tripped := off.Observe(1<<40, 0); tripped {
		t.Error("zero-window watchdog tripped")
	}
}

package noc

import "testing"

type recorder struct {
	got    []*Flit
	cycles []int64
}

func (r *recorder) Receive(f *Flit, cycle int64) {
	r.got = append(r.got, f)
	r.cycles = append(r.cycles, cycle)
}

func TestLinkDeliveryTiming(t *testing.T) {
	sink := &recorder{}
	l := NewLink(sink, 2)
	f := NewFlit(NewPacket(1, 0, 1, 1, 0, 0), 0)

	l.Send(f)
	if len(sink.got) != 0 {
		t.Fatal("flit delivered before commit")
	}
	l.Commit(5)
	if len(sink.got) != 1 || sink.got[0] != f || sink.cycles[0] != 5 {
		t.Fatalf("delivery wrong: %v at %v", sink.got, sink.cycles)
	}
}

func TestLinkCreditAccounting(t *testing.T) {
	sink := &recorder{}
	l := NewLink(sink, 2)
	if l.Credits() != 2 {
		t.Fatalf("initial credits %d", l.Credits())
	}
	l.Send(NewFlit(NewPacket(1, 0, 1, 1, 0, 0), 0))
	if l.Credits() != 1 {
		t.Fatalf("credits after send %d", l.Credits())
	}
	// A return staged this cycle becomes visible only after commit.
	l.ReturnCredit()
	if l.Credits() != 1 {
		t.Fatal("credit return visible before commit")
	}
	l.Commit(0)
	if l.Credits() != 2 {
		t.Fatalf("credits after commit %d", l.Credits())
	}
}

func TestLinkPanics(t *testing.T) {
	sink := &recorder{}
	f := NewFlit(NewPacket(1, 0, 1, 1, 0, 0), 0)

	check := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	check("double drive", func() {
		l := NewLink(sink, 2)
		l.Send(f)
		l.Send(f)
	})
	check("send without credit", func() {
		l := NewLink(sink, 1)
		l.Send(f)
		l.Commit(0)
		l.Send(f) // credit consumed, none returned
	})
	check("nil sink", func() { NewLink(nil, 1) })
	check("zero credits", func() { NewLink(sink, 0) })
	check("nil flit", func() {
		l := NewLink(sink, 1)
		l.Send(nil)
	})
}

// TestLinkPipelined checks back-to-back cycles deliver in order with
// credits recycling.
func TestLinkPipelined(t *testing.T) {
	sink := &recorder{}
	l := NewLink(sink, 1)
	for cycle := int64(0); cycle < 5; cycle++ {
		f := NewFlit(NewPacket(uint64(cycle+1), 0, 1, 1, 0, 0), 0)
		l.Send(f)
		l.ReturnCredit() // receiver frees the slot the same cycle
		l.Commit(cycle)
	}
	if len(sink.got) != 5 {
		t.Fatalf("delivered %d/5", len(sink.got))
	}
	for i, f := range sink.got {
		if f.Packet.ID != uint64(i+1) {
			t.Fatalf("order violated: %v", sink.got)
		}
	}
}

// arrivals records the handles a link told the kernel about.
type arrivals []int

func (a *arrivals) Arrive(h int) { *a = append(*a, h) }

// TestLinkSinkLatch covers the form a network uses: the sink takes the
// staged flit itself and returns credits in place, and the kernel hears of
// every Send and — on a channel that names its driver — of a credit count
// lifting off zero, only then.
func TestLinkSinkLatch(t *testing.T) {
	var woke arrivals
	l := NewLink(&recorder{}, 2)
	l.Bind(&LinkEnv{Waker: &woke}, 0, 7, 3, false)
	f, g := NewFlit(NewPacket(1, 0, 1, 1, 0, 0), 0), NewFlit(NewPacket(2, 0, 1, 1, 0, 0), 0)

	if got, _ := l.Take(0); got != nil {
		t.Fatal("idle link handed the sink a flit")
	}
	l.Send(f)
	if got, h := l.Take(0); got != f || h != f.Header() {
		t.Fatalf("Take = %v, %#x: want the staged flit and its header %#x", got, h, f.Header())
	}
	if got, _ := l.Take(0); got != nil {
		t.Fatal("flit taken twice")
	}
	l.Send(g)
	l.Take(1)
	if l.Credits() != 0 || len(woke) != 2 || woke[0] != 7 || woke[1] != 7 {
		t.Fatalf("after two sends: %d credits, arrivals %v", l.Credits(), woke)
	}
	l.ReturnCredits(1, 1) // 0 -> 1: the parked driver hears of it
	l.ReturnCredits(2, 1) // 1 -> 2: nobody can be parked on a positive count
	if l.Credits() != 2 || len(woke) != 3 || woke[2] != 3 {
		t.Fatalf("after returns: %d credits, arrivals %v", l.Credits(), woke)
	}

	// A router-driven channel names no driver and wakes none.
	woke = nil
	r := NewLink(&recorder{}, 1)
	r.Bind(&LinkEnv{Waker: &woke}, 0, 7, -1, false)
	r.Send(f)
	r.Take(0)
	r.ReturnCredits(0, 1)
	if len(woke) != 1 {
		t.Fatalf("router-driven channel: arrivals %v, want the one Send", woke)
	}
}

// TestLinkSinkMask: a Send on a link bound to its sink's staged-input mask
// raises exactly that channel's bit, plainly or, on a link its sink shares
// with another shard's senders, atomically; a hand-driven Commit that takes
// the flit lowers it again.
func TestLinkSinkMask(t *testing.T) {
	for _, shared := range []bool{false, true} {
		var mask uint32
		a, b := NewLink(&recorder{}, 2), NewLink(&recorder{}, 2)
		a.Bind(&LinkEnv{}, 0, 7, -1, shared)
		b.Bind(&LinkEnv{}, 1, 7, -1, shared)
		a.SetSinkMask(&mask, 1)
		b.SetSinkMask(&mask, 4)
		a.Send(NewFlit(NewPacket(1, 0, 1, 1, 0, 0), 0))
		if mask != 1<<1 {
			t.Fatalf("shared=%v: mask %#b after a send on the port-1 channel, want %#b", shared, mask, 1<<1)
		}
		b.Send(NewFlit(NewPacket(2, 0, 1, 1, 0, 0), 0))
		if mask != 1<<1|1<<4 {
			t.Fatalf("shared=%v: mask %#b after sends on ports 1 and 4", shared, mask)
		}
		a.Commit(0)
		if mask != 1<<4 {
			t.Errorf("shared=%v: mask %#b after port 1's hand-driven commit, want %#b", shared, mask, 1<<4)
		}
	}
	// A channel bound to no mask (an interface's) leaves every word alone.
	l := NewLink(&recorder{}, 1)
	l.Send(NewFlit(NewPacket(3, 0, 1, 1, 0, 0), 0))
	if got, _ := l.Take(0); got == nil {
		t.Fatal("unbound channel lost its flit")
	}
}

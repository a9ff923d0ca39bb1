package network

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/snapshot/codec"
)

// TestRebuildAllocs: once a network of a shape has been closed, a Build +
// Close of that shape allocates the Network record and the typed lanes and
// nothing else — not the 165-210 KB in 33-36 allocations an 8x8 build on new
// memory costs.
func TestRebuildAllocs(t *testing.T) {
	for _, arch := range router.Archs {
		t.Run(arch.String(), func(t *testing.T) {
			build := func() {
				n, err := Build(Config{Arch: arch})
				if err != nil {
					t.Fatal(err)
				}
				n.Close()
			}
			build()
			allocs := alloctest.Allocs(50, alloctest.Same(build))
			perBuild := alloctest.Bytes(alloctest.Same(build))
			t.Logf("%.0f allocations, %d bytes per rebuild", allocs, perBuild)
			if allocs > 6 || perBuild > 4<<10 {
				t.Errorf("an 8x8 rebuild allocates %.0f times, %d bytes; want at most 6 and 4 KB", allocs, perBuild)
			}
		})
	}
}

// recycleConfig is the one shape the recycling tests build: no other test
// builds a 3x5 mesh of 3-flit buffers and 6-flit sinks, so its free list is
// theirs alone.
func recycleConfig(arch router.Arch, shards int, armed bool) Config {
	cfg := Config{Topo: noc.Topology{Width: 3, Height: 5}, Arch: arch, Shards: shards, BufferDepth: 3, SinkDepth: 6}
	if armed {
		cfg.Check = check.New(check.All())
		// Bit flips, drops, stalls, lost credits and a link dying mid-run (a
		// reconfiguration epoch).
		cfg.Fault = fault.NewInjector(fault.Spec{Seed: 0xC105E, BitFlip: 1e-3, Drop: 1e-3, Stall: 2e-3, CreditLoss: 5e-4,
			DeadLinks: []fault.DeadLink{{A: 4, B: 7, At: 120}}})
		cfg.Retransmit = &RetransmitConfig{Timeout: 96, Retries: 3}
	}
	return cfg
}

// forgetFree empties every free list, so the next New of any shape is carved
// from new memory.
func forgetFree() {
	free.Lock()
	free.byShape = nil
	free.Unlock()
}

// imageOf renders n's state image, counters and in-flight counts.
func imageOf(t *testing.T, n *Network) string {
	t.Helper()
	e := codec.NewEncoder()
	if err := n.SaveState(e); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("cycle %d: %x %+v out=%d arena=%d", n.Cycle(), e.Bytes(), *n.Counters(), n.Outstanding(), n.ArenaOutstanding())
}

// imagesAt drives n with seeded bursty traffic and returns its image at each
// checkpoint cycle.
func imagesAt(t *testing.T, n *Network, seed uint64, checkpoints ...int) []string {
	t.Helper()
	rng := sim.NewRNG(seed)
	var out []string
	cyc := 0
	for _, until := range checkpoints {
		for ; cyc < until; cyc++ {
			burstyStep(n, rng, cyc)
		}
		out = append(out, imageOf(t, n))
	}
	return out
}

// compareTraces reports the first checkpoint at which got differs from the
// reference want.
func compareTraces(t *testing.T, what string, got, want []string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			k := 0
			for k < len(got[i]) && k < len(want[i]) && got[i][k] == want[i][k] {
				k++
			}
			t.Fatalf("%s differs from the reference at checkpoint %d, byte %d on:\n got  %.300s\n want %.300s", what, i, k, got[i][k:], want[i][k:])
		}
	}
}

var checkpoints = []int{0, 1, 40, 95, 260, 700}

// TestRecycledStorageMatchesNew closes a dirty network — mid-burst, with
// flits buffered, credits out and packets in flight — and builds the same
// shape on its storage. The rebuilt network's state image and counters must
// equal, at every checkpoint of the same traffic, those of a network of that
// shape built on new memory, on every architecture, serial and on two
// shards, bare and with checker, bit flips, drops, stalls, credit loss, a
// dying link and retransmission armed.
// Mutation-checked: a scrub that leaves the router slabs, the interfaces or
// an arena's first block uncleared fails it. (The link slab, the sink rings
// and the packet chunk are cleared for the garbage collector's sake: Link.Init
// and Packet.init rewrite every field, and a ring slot is read only after a
// push.)
func TestRecycledStorageMatchesNew(t *testing.T) {
	for _, armed := range []bool{false, true} {
		t.Run(map[bool]string{false: "bare", true: "armed"}[armed], func(t *testing.T) {
			forArchsAndShards(t, func(t *testing.T, arch router.Arch, shards int) { recycleDirty(t, arch, shards, armed) })
		})
	}
}

// recycleDirty is one case of TestRecycledStorageMatchesNew: the network
// closed dirty has run 150 cycles of hotspot traffic (armed, across the dead
// link's epoch at cycle 120).
func recycleDirty(t *testing.T, arch router.Arch, shards int, armed bool) {
	forgetFree()
	dirty := New(recycleConfig(arch, shards, armed))
	rng := sim.NewRNG(0xD1A7)
	for cyc := 0; cyc < 150; cyc++ {
		hotspotStep(dirty, rng, cyc)
	}
	if armed && dirty.Epochs() == 0 {
		t.Fatal("the armed network to recycle ran no reconfiguration epoch")
	}
	if dirty.Outstanding() == 0 || dirty.ArenaOutstanding() == 0 {
		t.Fatalf("the network to recycle is not dirty: %d packets, %d flits in flight", dirty.Outstanding(), dirty.ArenaOutstanding())
	}
	owed := 0
	for _, l := range dirty.links {
		if l.Credits() < dirty.cfg.BufferDepth {
			owed++
		}
	}
	if owed == 0 {
		t.Fatal("the network to recycle has no credits out")
	}

	// The reference is built while the dirty network still holds its
	// storage: new memory.
	ref := New(recycleConfig(arch, shards, armed))
	defer ref.Close()
	want := imagesAt(t, ref, 0x5EED, checkpoints...)

	used := dirty.store
	dirty.Close()
	rebuilt := New(recycleConfig(arch, shards, armed))
	defer rebuilt.Close()
	if rebuilt.store != used {
		t.Fatal("the rebuilt network was not carved from the closed network's storage")
	}
	compareTraces(t, "the rebuilt network", imagesAt(t, rebuilt, 0x5EED, checkpoints...), want)
}

// TestDoubleCloseSharesNoStorage closes a network twice and builds two
// networks of its shape: Close hands the storage on once, so the two share
// no memory, and each runs the same traffic as a network on new memory.
func TestDoubleCloseSharesNoStorage(t *testing.T) {
	forgetFree()
	cfg := recycleConfig(router.NoX, 1, false)
	ref := New(cfg)
	defer ref.Close()
	want := imagesAt(t, ref, 0xD0B1E, checkpoints...)

	closed := New(cfg)
	imagesAt(t, closed, 0xBEEF, 80)
	closed.Close()
	closed.Close()
	a, b := New(cfg), New(cfg)
	defer a.Close()
	defer b.Close()
	if a.store == b.store || &a.routers[0] == &b.routers[0] || &a.links[0] == &b.links[0] {
		t.Fatal("two open networks share storage")
	}
	// Interleaved, so a write through shared memory would show in the other.
	rng := [2]*sim.RNG{sim.NewRNG(0xD0B1E), sim.NewRNG(0xD0B1E)}
	var got [2][]string
	cyc := 0
	for _, until := range checkpoints {
		for ; cyc < until; cyc++ {
			burstyStep(a, rng[0], cyc)
			burstyStep(b, rng[1], cyc)
		}
		got[0], got[1] = append(got[0], imageOf(t, a)), append(got[1], imageOf(t, b))
	}
	compareTraces(t, "the first network built after the double Close", got[0], want)
	compareTraces(t, "the second network built after the double Close", got[1], want)
}

// freeCount returns how many storage records wait on the free list of a
// shape.
func freeCount(sh shape) int {
	free.Lock()
	defer free.Unlock()
	return len(free.byShape[sh])
}

// mustPanic runs fn and returns its panic message, failing the test when fn
// returns normally.
func mustPanic(t *testing.T, what string, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic", what)
		}
		msg = fmt.Sprint(r)
	}()
	fn()
	return ""
}

// TestCloseContract: Close is idempotent and hands the storage on once;
// Step, Inject and FastForwardIdle after Close panic naming the misuse; and
// Close after a Step that panicked and was recovered — serial, and on two
// shards, from the end-of-cycle observer and from a fault hook on the
// stepping goroutine while the other shard's worker runs its phase —
// returns normally and drops the storage instead of handing it on.
func TestCloseContract(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			forgetFree()
			cfg := recycleConfig(router.SpecFast, shards, false)
			n := New(cfg)
			sh := n.store.shape
			n.Inject(0, 14, 3, 0)
			n.Step()
			n.Close()
			n.Close()
			if got := freeCount(sh); got != 1 {
				t.Fatalf("two Closes of one network left %d records on the free list, want 1", got)
			}
			for _, c := range []struct {
				op string
				fn func()
			}{
				{"Step", n.Step},
				{"Inject", func() { n.Inject(0, 1, 1, 0) }},
				{"FastForwardIdle", func() { n.FastForwardIdle(10) }},
			} {
				if msg := mustPanic(t, c.op+" after Close", c.fn); !strings.Contains(msg, c.op+" after Close") {
					t.Errorf("%s after Close panicked with %q, want the misuse named", c.op, msg)
				}
			}

			// A step that panics: the observer fires on the stepping goroutine
			// once the cycle is over; the tamper hook in the compute or commit
			// walk of the channels router 0 and its interface drive, all on
			// shard 0, which the stepping goroutine runs.
			for _, hook := range []string{"observer", "tamper"} {
				bad := cfg
				if hook == "observer" {
					bad.Observer = func(cycle int64, active int) {
						if cycle == 30 {
							panic("observer fails")
						}
					}
				} else {
					bad.Check = check.New(check.All())
					bad.Fault = &testTamper{flit: func(site int32, cycle int64, f *noc.Flit) bool {
						if site <= 3 && cycle >= 30 {
							panic("tamper hook fails")
						}
						return false
					}}
				}
				p := New(bad)
				rng := sim.NewRNG(7)
				mustPanic(t, "a step whose "+hook+" hook panics", func() {
					for cyc := 0; cyc < 200; cyc++ {
						hotspotStep(p, rng, cyc)
					}
				})
				held := freeCount(sh)
				p.Close()
				p.Close()
				if got := freeCount(sh); got != held {
					t.Errorf("closing a network whose step panicked (%s hook) put %d records on the free list, want none", hook, got-held)
				}
				mustPanic(t, "Step after a recovered panic and Close", p.Step)
			}
		})
	}
}

// TestClosedNetworkHoldsNothing: a closed network keeps none of its
// storage, so a misused pointer to it cannot read the state of the next
// network carved from that storage.
func TestClosedNetworkHoldsNothing(t *testing.T) {
	n := New(recycleConfig(router.NoX, 2, false))
	n.Close()
	if n.store != nil || n.kernel != nil || n.routers != nil || n.nis != nil || n.links != nil || n.local != nil || n.counters != nil {
		t.Error("a closed network still points into its storage")
	}
	if n.packets.Free() != 0 || n.aggCounters != (power.Counters{}) {
		t.Error("a closed network still holds its packet slab or counters")
	}
}

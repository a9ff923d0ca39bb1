package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/noc"
	"repro/internal/sim"
)

var topo = noc.Topology{Width: 8, Height: 8}

func TestGenerateDeterministic(t *testing.T) {
	w := Workloads[0]
	a := Generate(w, topo, 3000, 42)
	b := Generate(w, topo, 3000, 42)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
	c := Generate(w, topo, 3000, 43)
	if len(c.Events) == len(a.Events) {
		same := true
		for i := range c.Events {
			if c.Events[i] != a.Events[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestEventsSortedAndValid(t *testing.T) {
	for _, w := range Workloads {
		tr := Generate(w, topo, 2000, 7)
		if len(tr.Events) == 0 {
			t.Fatalf("%s: empty trace", w.Name)
		}
		if !sort.SliceIsSorted(tr.Events, func(i, j int) bool {
			return tr.Events[i].TimePs < tr.Events[j].TimePs
		}) {
			t.Errorf("%s: events not time-sorted", w.Name)
		}
		for _, e := range tr.Events {
			if e.Src == e.Dst {
				t.Fatalf("%s: self-addressed event %+v", w.Name, e)
			}
			if int(e.Src) >= topo.Nodes() || int(e.Dst) >= topo.Nodes() || e.Src < 0 || e.Dst < 0 {
				t.Fatalf("%s: endpoints off mesh: %+v", w.Name, e)
			}
			if e.Flits != ControlFlits && e.Flits != DataFlits {
				t.Fatalf("%s: packet size %d not in Table 1", w.Name, e.Flits)
			}
			if e.Class != ClassRequest && e.Class != ClassReply {
				t.Fatalf("%s: bad class %d", w.Name, e.Class)
			}
			if e.TimePs < 0 {
				t.Fatalf("%s: negative time %+v", w.Name, e)
			}
		}
	}
}

// TestTransactionRate verifies the generator hits each profile's
// transaction rate within tolerance (requests on the request network from
// cores approximate TransPerKCycle).
func TestTransactionRate(t *testing.T) {
	const cycles = 30000
	for _, w := range Workloads {
		tr := Generate(w, topo, cycles, 11)
		// Count core-initiated request-network events (misses+writebacks);
		// invalidations also ride network 0 but originate at homes, so
		// count only 1-flit req + 9-flit wb... both originate at cores, but
		// invalidations are home->sharer. Approximate by counting all
		// class-0 events minus invalidations is hard without labels; use
		// reply-network data events (one per miss) plus writeback acks
		// instead: every transaction produces exactly one reply to the
		// initiating core.
		perCore := make(map[noc.NodeID]int)
		for _, e := range tr.Events {
			if e.Class == ClassReply && (e.Flits == DataFlits || e.Flits == ControlFlits) {
				perCore[e.Dst]++
			}
		}
		// Reply class also contains inv acks (dst = home); they inflate the
		// count modestly, so allow generous tolerance.
		total := 0
		for _, n := range perCore {
			total += n
		}
		gotRate := float64(total) / float64(topo.Nodes()) / float64(cycles) * 1000
		if gotRate < w.TransPerKCycle*0.7 || gotRate > w.TransPerKCycle*1.6 {
			t.Errorf("%s: measured %.2f transactions/kcycle, profile %.2f", w.Name, gotRate, w.TransPerKCycle)
		}
	}
}

// TestBothNetworksUsed verifies traffic is split across the two physical
// networks (deadlock isolation, Table 1).
func TestBothNetworksUsed(t *testing.T) {
	tr := Generate(Workloads[1], topo, 5000, 3)
	var req, rep int
	for _, e := range tr.Events {
		if e.Class == ClassRequest {
			req++
		} else {
			rep++
		}
	}
	if req == 0 || rep == 0 {
		t.Fatalf("networks unused: req=%d rep=%d", req, rep)
	}
}

// TestLocalityBiasesHomes verifies scientific profiles pick nearer homes
// than uniform ones.
func TestLocalityBiasesHomes(t *testing.T) {
	meanReqDistance := func(w Workload) float64 {
		tr := Generate(w, topo, 10000, 5)
		var sum, n float64
		for _, e := range tr.Events {
			if e.Class == ClassRequest && e.Flits == ControlFlits {
				sum += float64(topo.Hops(e.Src, e.Dst))
				n++
			}
		}
		return sum / n
	}
	local, _ := WorkloadByName("lu")      // lambda 2.5
	uniform, _ := WorkloadByName("radix") // lambda 0
	dl, du := meanReqDistance(local), meanReqDistance(uniform)
	if dl >= du-0.5 {
		t.Errorf("locality ineffective: lu mean distance %.2f, radix %.2f", dl, du)
	}
}

// TestCommercialLoadsHigher verifies the commercial workloads offer more
// bandwidth than the lightest scientific one, mirroring the motivation for
// Figure 10's spread.
func TestCommercialLoadsHigher(t *testing.T) {
	bw := func(name string) float64 {
		w, err := WorkloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return Generate(w, topo, 20000, 9).MeanInjectionMBps()
	}
	if bw("tpcc") <= bw("water") {
		t.Error("tpcc should offer more bandwidth than water")
	}
	if bw("specjbb") <= bw("lu") {
		t.Error("specjbb should offer more bandwidth than lu")
	}
}

func TestWorkloadByNameErrors(t *testing.T) {
	if _, err := WorkloadByName("doom3"); err == nil {
		t.Error("unknown workload accepted")
	}
	if w, err := WorkloadByName("ocean"); err != nil || w.Name != "ocean" {
		t.Errorf("lookup failed: %v %v", w, err)
	}
}

// TestHomePickerDistribution sanity-checks the locality CDF sampler: all
// picks are valid nodes, never the source, and nearer nodes dominate.
func TestHomePickerDistribution(t *testing.T) {
	w := Workload{Name: "x", LocalityLambda: 2.0}
	hp := newHomePicker(w, topo, sim.NewRNG(1))
	rng := sim.NewRNG(2)
	src := noc.NodeID(27)   // central node
	counts := map[int]int{} // distance -> picks
	for i := 0; i < 20000; i++ {
		d := hp.pick(src, rng)
		if d == src {
			t.Fatal("picked source as home")
		}
		counts[topo.Hops(src, d)]++
	}
	if counts[1] <= counts[7] {
		t.Errorf("distance-1 picks (%d) should dominate distance-7 (%d)", counts[1], counts[7])
	}
}

// TestMeanInjectionMBps sanity-checks bandwidth computation.
func TestMeanInjectionMBps(t *testing.T) {
	tr := &Trace{
		Topo:       noc.Topology{Width: 2, Height: 2},
		DurationPs: 1_000_000, // 1 us
		Events:     []Event{{0, 0, 1, 9, 0}, {5, 1, 2, 1, 1}},
	}
	// 10 flits * 8 B / 1e-6 s / 4 nodes = 20 MB/s/node.
	if got := tr.MeanInjectionMBps(); math.Abs(got-20) > 1e-9 {
		t.Errorf("MeanInjectionMBps = %v, want 20", got)
	}
}

// eventsDigest is the SHA-256 of every profile's trace at one setting, each
// event written as five little-endian int64 fields after its profile's
// event count.
func eventsDigest(topo noc.Topology, cpuCycles int64, seed uint64) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, w := range Workloads {
		tr := Generate(w, topo, cpuCycles, seed)
		put(int64(len(tr.Events)))
		for _, e := range tr.Events {
			put(e.TimePs)
			put(int64(e.Src))
			put(int64(e.Dst))
			put(int64(e.Flits))
			put(int64(e.Class))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateDigest pins the generated events, tie order included, of all
// eight profiles at two settings: a change to the generator or its sort
// that moves any event fails here.
func TestGenerateDigest(t *testing.T) {
	for _, c := range []struct {
		topo   noc.Topology
		cycles int64
		seed   uint64
		want   string
	}{
		{noc.Topology{Width: 8, Height: 8}, 10_000, 0xA11CE, "c8d9ba255173d42904d06c99e7ceeb470a6622635920067fa3bf3f15c04b280a"},
		{noc.Topology{Width: 4, Height: 4}, 4_000, 7, "4f30252fef3a747c8cca449f99a99306fc59337877af654c69f846a75b9bf1c6"},
	} {
		if got := eventsDigest(c.topo, c.cycles, c.seed); got != c.want {
			t.Errorf("%dx%d, %d cycles, seed %#x: digest %s, want %s",
				c.topo.Width, c.topo.Height, c.cycles, c.seed, got, c.want)
		}
	}
}

// TestSortEventsMatchesSortSlice: sortEvents orders tie-heavy slices
// exactly as sort.Slice does with the same comparator, the order of equal
// keys included.
func TestSortEventsMatchesSortSlice(t *testing.T) {
	rng := sim.NewRNG(5)
	for _, n := range []int{0, 1, 2, 3, 12, 13, 50, 257, 1000, 4096, 20_000} {
		for _, distinct := range []int{1, 3, 16} {
			events := make([]Event, n)
			for i := range events {
				// Few distinct keys, and Flits/Class outside the key, so
				// equal keys are told apart by where they end up.
				events[i] = Event{
					TimePs: int64(rng.Intn(distinct)) * CPUCyclePs,
					Src:    noc.NodeID(rng.Intn(distinct)),
					Dst:    noc.NodeID(rng.Intn(2)),
					Flits:  i,
					Class:  rng.Intn(2),
				}
			}
			want := slices.Clone(events)
			sort.Slice(want, func(i, j int) bool {
				a, b := want[i], want[j]
				if a.TimePs != b.TimePs {
					return a.TimePs < b.TimePs
				}
				if a.Src != b.Src {
					return a.Src < b.Src
				}
				return a.Dst < b.Dst
			})
			if sortEvents(events); !slices.Equal(events, want) {
				t.Fatalf("n=%d, %d distinct keys: sortEvents differs from sort.Slice", n, distinct)
			}
		}
	}
}

// TestEventsHintCapped: the up-front buffer is sized from the profile and
// capped, so the longest valid trace cannot panic in make, and a length of
// zero or less reserves nothing.
func TestEventsHintCapped(t *testing.T) {
	for _, w := range Workloads {
		if got := eventsHint(w, topo, MaxCPUCycles); got != maxEventsHint {
			t.Errorf("%s: hint %d at MaxCPUCycles, want the cap %d", w.Name, got, maxEventsHint)
		}
		if a, b := eventsHint(w, topo, 0), eventsHint(w, topo, -5); a != 0 || b != 0 {
			t.Errorf("%s: hints %d and %d at 0 and -5 cycles, want 0", w.Name, a, b)
		}
		tr := Generate(w, topo, 10_000, 3)
		if hint := eventsHint(w, topo, 10_000); len(tr.Events) > hint {
			t.Errorf("%s: %d events outgrew the hint %d", w.Name, len(tr.Events), hint)
		}
	}
}

// TestGenerateAllocs bounds the allocations of one trace: the generator,
// its home picker, one event buffer sorted in place and the trace, not one
// per core, transaction or storm.
func TestGenerateAllocs(t *testing.T) {
	w, err := WorkloadByName("barnes")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() { Generate(w, topo, 10_000, 1) })
	t.Logf("%.0f allocations per trace", allocs)
	if allocs > 16 {
		t.Errorf("Generate(barnes, 10k cycles) makes %.0f allocations, want <= 16", allocs)
	}
}

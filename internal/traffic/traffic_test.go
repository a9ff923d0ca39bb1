package traffic

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/noc"
	"repro/internal/sim"
)

var topo8 = noc.Topology{Width: 8, Height: 8}

// TestPatternsInRange property-checks every pattern returns an on-mesh
// destination for every source.
func TestPatternsInRange(t *testing.T) {
	rng := sim.NewRNG(1)
	for _, name := range []string{"uniform", "transpose", "bitcomp", "bitrev", "shuffle", "tornado", "neighbor", "hotspot"} {
		p, err := ByName(name, topo8)
		if err != nil {
			t.Fatal(err)
		}
		f := func(srcRaw uint8) bool {
			src := noc.NodeID(int(srcRaw) % topo8.Nodes())
			d := p.Dest(src, rng)
			return d >= 0 && int(d) < topo8.Nodes()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestPermutationPatternsAreDeterministic verifies the deterministic
// patterns ignore the RNG.
func TestPermutationPatternsAreDeterministic(t *testing.T) {
	for _, name := range []string{"transpose", "bitcomp", "bitrev", "shuffle", "tornado", "neighbor"} {
		p, _ := ByName(name, topo8)
		r1, r2 := sim.NewRNG(1), sim.NewRNG(999)
		for src := 0; src < topo8.Nodes(); src++ {
			if p.Dest(noc.NodeID(src), r1) != p.Dest(noc.NodeID(src), r2) {
				t.Errorf("%s: destination depends on RNG", name)
			}
		}
	}
}

// TestKnownMappings pins down specific destinations from the standard
// definitions.
func TestKnownMappings(t *testing.T) {
	rng := sim.NewRNG(1)
	cases := []struct {
		pattern string
		src     noc.NodeID
		want    noc.NodeID
	}{
		{"transpose", 1, 8}, // (1,0) -> (0,1)
		{"transpose", 8, 1}, // (0,1) -> (1,0)
		{"bitcomp", 0, 63},  // 000000 -> 111111
		{"bitcomp", 21, 42}, // 010101 -> 101010
		{"bitrev", 1, 32},   // 000001 -> 100000
		{"shuffle", 33, 3},  // 100001 -> 000011
		{"tornado", 0, 27},  // (0,0) -> (3,3) for k=8
		{"neighbor", 0, 1},  // (0,0) -> (1,0)
		{"neighbor", 7, 0},  // wraps in X
	}
	for _, c := range cases {
		p, _ := ByName(c.pattern, topo8)
		if got := p.Dest(c.src, rng); got != c.want {
			t.Errorf("%s(%d) = %d, want %d", c.pattern, c.src, got, c.want)
		}
	}
}

// TestUniformExcludesSelf verifies uniform never picks the source.
func TestUniformExcludesSelf(t *testing.T) {
	rng := sim.NewRNG(3)
	u := Uniform{topo8}
	for i := 0; i < 5000; i++ {
		if u.Dest(5, rng) == 5 {
			t.Fatal("uniform picked the source")
		}
	}
}

// TestHotspotBias verifies roughly the configured fraction of packets hit
// the hot node.
func TestHotspotBias(t *testing.T) {
	rng := sim.NewRNG(4)
	h := Hotspot{Topo: topo8, Hot: 27, Frac: 0.25}
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if h.Dest(0, rng) == 27 {
			hits++
		}
	}
	// Hot node also receives its share of the uniform remainder.
	wantLow, wantHigh := 0.25, 0.25+1.5/64.0+0.02
	frac := float64(hits) / n
	if frac < wantLow-0.02 || frac > wantHigh {
		t.Errorf("hotspot fraction %.3f outside [%.3f, %.3f]", frac, wantLow-0.02, wantHigh)
	}
}

// TestBernoulliRate checks the memoryless process hits its configured rate.
func TestBernoulliRate(t *testing.T) {
	b := &Bernoulli{P: 0.2, RNG: sim.NewRNG(5)}
	count := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if b.Tick() {
			count++
		}
	}
	if got := float64(count) / n; math.Abs(got-0.2) > 0.01 {
		t.Errorf("Bernoulli rate %.4f, want 0.2", got)
	}
	if b.Rate() != 0.2 {
		t.Errorf("Rate() = %v", b.Rate())
	}
}

// TestSelfSimilarRate checks T_off is solved correctly: the long-run rate
// approaches the target. Heavy tails converge slowly, so the tolerance is
// loose but the run is long.
func TestSelfSimilarRate(t *testing.T) {
	for _, target := range []float64{0.05, 0.15, 0.3} {
		s := NewSelfSimilar(target, sim.NewRNG(6))
		if math.Abs(s.Rate()-target) > 1e-9 {
			t.Errorf("analytic rate %v, want %v", s.Rate(), target)
		}
		count := 0
		const n = 2_000_000
		for i := 0; i < n; i++ {
			if s.Tick() {
				count++
			}
		}
		got := float64(count) / n
		if math.Abs(got-target)/target > 0.25 {
			t.Errorf("empirical rate %.4f, want ~%.2f", got, target)
		}
	}
}

// TestSelfSimilarBurstiness verifies the source is actually bursty: the
// lag-1 autocorrelation of the injection indicator far exceeds the
// memoryless process's (which is ~0).
func TestSelfSimilarBurstiness(t *testing.T) {
	autocorr := func(tick func() bool, n int) float64 {
		xs := make([]float64, n)
		mean := 0.0
		for i := range xs {
			if tick() {
				xs[i] = 1
			}
			mean += xs[i]
		}
		mean /= float64(n)
		var num, den float64
		for i := 0; i+1 < n; i++ {
			num += (xs[i] - mean) * (xs[i+1] - mean)
		}
		for i := 0; i < n; i++ {
			den += (xs[i] - mean) * (xs[i] - mean)
		}
		return num / den
	}
	const n = 200000
	ss := NewSelfSimilar(0.2, sim.NewRNG(7))
	be := &Bernoulli{P: 0.2, RNG: sim.NewRNG(8)}
	acSS := autocorr(ss.Tick, n)
	acBe := autocorr(be.Tick, n)
	if acSS < 0.5 {
		t.Errorf("self-similar lag-1 autocorrelation %.3f, want strongly positive", acSS)
	}
	if math.Abs(acBe) > 0.05 {
		t.Errorf("Bernoulli lag-1 autocorrelation %.3f, want ~0", acBe)
	}
}

// TestByNameUnknown checks the error paths: an unknown name, and a topology
// too small for any destination but the source (Uniform used to search for
// one forever).
func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope", topo8); err == nil {
		t.Error("unknown pattern accepted")
	}
	for _, topo := range []noc.Topology{{Width: 1, Height: 1}, {}} {
		if _, err := ByName("uniform", topo); !errors.Is(err, ErrTooFewNodes) {
			t.Errorf("%dx%d: err = %v, want ErrTooFewNodes", topo.Width, topo.Height, err)
		}
	}
}

// TestBitPatternsRejectNonPowerOfTwo verifies the guard on bit-permutation
// patterns.
func TestBitPatternsRejectNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bitcomp on 3x3 should panic")
		}
	}()
	p, _ := ByName("bitcomp", noc.Topology{Width: 3, Height: 3})
	p.Dest(0, sim.NewRNG(1))
}

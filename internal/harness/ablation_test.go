package harness

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/router"
)

// TestAblateBufferDepthShape checks the headline ablation finding: with
// minimal (2-deep) buffers NoX degrades far less than Spec-Accurate,
// because freeing the winner's slot during the collision cycle (plus the
// decode register's extra slot) relieves the credit loop.
func TestAblateBufferDepthShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep is slow")
	}
	pts, err := AblateBufferDepth([]int{2, 4}, 2000, []router.Arch{router.SpecAccurate, router.NoX}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]RunResult{}
	for _, pt := range pts {
		byKey[pt.Label+"/"+pt.Arch.String()] = pt
	}
	noxPenalty := byKey["depth=2/NoX"].MeanLatencyNs / byKey["depth=4/NoX"].MeanLatencyNs
	saPenalty := byKey["depth=2/Spec-Accurate"].MeanLatencyNs / byKey["depth=4/Spec-Accurate"].MeanLatencyNs
	if noxPenalty >= saPenalty {
		t.Errorf("NoX depth-2 penalty %.3fx should be below Spec-Accurate's %.3fx", noxPenalty, saPenalty)
	}
	if byKey["depth=2/NoX"].Saturated {
		t.Error("NoX should sustain 2 GB/s/node even with 2-deep buffers")
	}
}

// TestAblateArbiterFunctional checks both arbiter kinds sustain the load
// with comparable latency (the choice is not load-bearing).
func TestAblateArbiterFunctional(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep is slow")
	}
	pts, err := AblateArbiter(1500, []router.Arch{router.NoX}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("want 2 points, got %d", len(pts))
	}
	for _, pt := range pts {
		if pt.Saturated {
			t.Errorf("%s saturated at 1.5 GB/s/node", pt.Label)
		}
	}
	ratio := pts[0].MeanLatencyNs / pts[1].MeanLatencyNs
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("arbiter choice moved latency by %.2fx; expected near-parity", ratio)
	}
}

// TestAblateXORCostMonotonic checks the sensitivity study: raising the XOR
// premium monotonically erodes (but at 1.25x does not reverse) NoX's power
// advantage over Spec-Accurate.
func TestAblateXORCostMonotonic(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep is slow")
	}
	rel, err := AblateXORCost([]float64{1.0, 1.06, 1.25}, 2000, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(rel[1.0] > rel[1.06] && rel[1.06] > rel[1.25]) {
		t.Errorf("XOR-cost sensitivity not monotonic: %v", rel)
	}
	if rel[1.25] <= 1.0 {
		t.Errorf("power advantage should survive a 1.25x XOR premium, got %v", rel[1.25])
	}
}

// TestFormatAblation checks the renderer.
func TestFormatAblation(t *testing.T) {
	s := FormatAblation("title", []RunResult{
		{Label: "depth=2", Arch: router.NoX, MeanLatencyNs: 7.5, AcceptedMBps: 1999},
		{Label: "depth=2", Arch: router.SpecAccurate, Saturated: true},
	})
	for _, want := range []string{"title", "depth=2", "NoX", "7.50", "true"} {
		if !strings.Contains(s, want) {
			t.Errorf("ablation output missing %q:\n%s", want, s)
		}
	}
}

// TestAblateRejectsBadRate checks the ablations pass a run's rate errors
// through instead of rendering rows for a load no run can mean or offer.
func TestAblateRejectsBadRate(t *testing.T) {
	archs := []router.Arch{router.NoX}
	if _, err := AblateBufferDepth([]int{4}, -5, archs, nil, 0); !errors.Is(err, ErrRateInvalid) {
		t.Errorf("negative rate: err = %v, want ErrRateInvalid", err)
	}
	if _, err := AblateArbiter(1e9, archs, nil, 0); !errors.Is(err, ErrRateInfeasible) {
		t.Errorf("rate beyond one packet a cycle: err = %v, want ErrRateInfeasible", err)
	}
}

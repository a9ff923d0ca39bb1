package harness

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/exp"
	"repro/internal/network"
	"repro/internal/sim"
)

// TestSweepArrivalMapEquivalence pins the sweep's shared arrival map as a
// pure accelerator: SweepSynthetic, whose look-ahead cells jump the map's
// hit-free blocks, must reproduce the same walk over a base with no map
// (sweep on the map-less base, serially) — same points and RunResults
// (compared as formatted dumps, since NaN defeats ==) and the same CSV — on
// one worker and on a pool. Each case also
// checks that a cell handed the map scans it exactly when its sources are
// Bernoulli and that each row covers the stream the cell forks for its node,
// so the comparison is not between two unmapped sweeps.
func TestSweepArrivalMapEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("arrival-map sweep equivalence is slow")
	}
	cases := []struct {
		name    string
		pattern string
		rates   []float64
		edit    func(*SyntheticConfig)
	}{
		{"uniform/low", "uniform", []float64{10, 40, 200}, nil},
		{"uniform/high", "uniform", []float64{600, 2200, 3400}, nil},
		{"transpose/low", "transpose", []float64{20, 200}, nil},
		{"transpose/high", "transpose", []float64{800, 1600, 2400}, nil},
		{"packet-flits-4", "uniform", []float64{40, 400}, func(c *SyntheticConfig) { c.PacketFlits = 4 }},
		{"infeasible-rung", "uniform", []float64{40, 200, 1e9}, nil},
		{"selfsimilar", "selfsimilar", []float64{200, 800}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := SyntheticConfig{Pattern: tc.pattern, WarmupCycles: 150, MeasureCycles: 500, DrainCycles: 2000}
			if tc.edit != nil {
				tc.edit(&base)
			}
			ref, err := sweep(base, tc.rates, nil, coldPoint)
			if err != nil {
				t.Fatal(err)
			}
			want, wantCSV := fmt.Sprintf("%+v", ref), SweepCSV(tc.pattern, ref)
			for _, workers := range []int{1, 4} {
				got, err := SweepSynthetic(base, tc.rates, exp.NewPool(workers))
				if err != nil {
					t.Fatal(err)
				}
				if dump := fmt.Sprintf("%+v", got); dump != want {
					t.Errorf("%d workers: mapped sweep diverged\nmapped: %.400s\nplain:  %.400s", workers, dump, want)
				}
				if csv := SweepCSV(tc.pattern, got); csv != wantCSV {
					t.Errorf("%d workers: mapped sweep CSV diverged\nmapped:\n%s\nplain:\n%s", workers, csv, wantCSV)
				}
			}

			a := newArrivalMap(base, tc.rates)
			if a == nil {
				t.Fatal("no arrival map for a sweep at positive rates")
			}
			cell := base
			cell.RateMBps, cell.arrivals = tc.rates[0], a
			m, err := prepareSynthetic(cell)
			if err != nil {
				t.Fatal(err)
			}
			net, err := network.Build(m.netConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer net.Close()
			m.attach(net)
			if scanned, want := a.rows != nil, tc.pattern != "selfsimilar"; scanned != want {
				t.Fatalf("a cell handed the map scanned it: %v, want %v", scanned, want)
			}
			// attach has already run each look-ahead source to its first
			// arrival, maybe past the window, so the rows are checked against
			// freshly forked twins of the cell's streams.
			if a.rows != nil {
				fresh, _ := forkStreams(m.cfg.Seed, len(m.procs))
				for i, r := range fresh {
					if n, _ := a.rows[i].Run(r); n == 0 {
						t.Fatalf("node %d's stream lies outside its map row", i)
					}
				}
			}
			if tc.rates[len(tc.rates)-1] == 1e9 {
				if feasible := newArrivalMap(base, tc.rates[:len(tc.rates)-1]); a.rate != feasible.rate {
					t.Errorf("the infeasible rung moved the map's rate: %v, want %v", a.rate, feasible.rate)
				}
			}
		})
	}
}

// TestArrivalMapConcurrentFirstUse has workers ask for rows at once, as the
// cells of a pooled sweep do on first use: the map is scanned once, every
// worker reads the same rows, and each row covers its node's stream.
func TestArrivalMapConcurrentFirstUse(t *testing.T) {
	base := SyntheticConfig{Pattern: "uniform", WarmupCycles: 100, MeasureCycles: 900}
	a := newArrivalMap(base, []float64{40, 200})
	got := make([][]*sim.HitMap, 4)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < a.nodes; i++ {
				got[w] = append(got[w], a.row(i))
			}
		}(w)
	}
	wg.Wait()
	arr, _ := forkStreams(a.seed, a.nodes)
	for i, r := range arr {
		for w := range got {
			if got[w][i] != got[0][i] {
				t.Fatalf("worker %d got another row %d than worker 0", w, i)
			}
		}
		if n, _ := got[0][i].Run(r); n == 0 {
			t.Fatalf("row %d does not cover node %d's stream", i, i)
		}
	}
}

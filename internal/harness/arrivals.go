package harness

import (
	"sync"

	"repro/internal/router"
	"repro/internal/sim"
)

// arrivalMap is a sweep's arrival skip-map: one sim.HitMap per node over the
// warm-up and measurement window, scanned at the highest packet rate any of
// the sweep's cells draws at. Every cell forks the same per-node streams from
// the sweep's seed (forkStreams), so a block with no hit at that rate holds
// none at any cell's rate, and each cell's Bernoulli sources jump it instead
// of drawing it again: the sweep scans each stream once, not once per cell.
//
// The map is scanned on first use, by the first cell whose attach takes
// the look-ahead path; a sweep none of whose cells does never scans it.
// Once scanned it is read-only and shared by the cells on every worker.
type arrivalMap struct {
	seed  uint64
	nodes int
	draws int64
	rate  float64

	once sync.Once
	rows []sim.HitMap
}

// newArrivalMap returns the map for base's cells at rates on every
// architecture, nil when none of them draws at a positive feasible rate.
// Cells that fail their rate checks end their series or the sweep and are
// left out of the map's rate.
func newArrivalMap(base SyntheticConfig, rates []float64) *arrivalMap {
	base.fill()
	var top float64
	for _, mbps := range rates {
		for _, arch := range router.Archs {
			cfg := base
			cfg.RateMBps, cfg.Arch = mbps, arch
			if _, pkt, err := cellRates(&cfg); err == nil {
				top = max(top, pkt)
			}
		}
	}
	if !(top > 0) {
		return nil
	}
	return &arrivalMap{seed: base.Seed, nodes: base.system().Cores(),
		draws: base.WarmupCycles + base.MeasureCycles, rate: top}
}

// row returns node i's map, scanning the whole map on the first call.
func (a *arrivalMap) row(i int) *sim.HitMap {
	a.once.Do(func() {
		arr, _ := forkStreams(a.seed, a.nodes)
		words := sim.HitMapWords(a.draws)
		bits := make([]uint64, a.nodes*words)
		a.rows = make([]sim.HitMap, a.nodes)
		for n, r := range arr {
			a.rows[n] = r.ScanHits(a.rate, a.draws, bits[n*words:(n+1)*words:(n+1)*words])
		}
	})
	return &a.rows[i]
}

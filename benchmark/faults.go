package main

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/noc"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// faultsWorkload mirrors cmd/noxfault's two modes over the network's public
// API, so the shadows a fault run arms — checker, injector, retransmission,
// up*/down* route rebuilds, snapshot restore — do most of the work on the
// same Step the other workloads time bare. Per architecture it runs
// transient campaigns (bit-flips and drops, each warm-started from one
// shared fault-free image) and degrade cells (0..K-1 links killed mid-run
// with end-to-end retransmission armed), all under uniform-random traffic.
type faultsWorkload struct {
	topo       noc.Topology
	campaigns  int // transient campaigns per architecture
	degrades   int // degrade cells per architecture (dead links 0..degrades-1)
	cycles     int64
	warmCycles int64
	killAt     int64
	seed       uint64
	warm       [4][]byte
	seq        [][2]noc.NodeID
}

// Campaign parameters shared by both cell kinds. Nearly every transient
// campaign ends wedged (a dropped flit strands its packet) and drains until
// the watchdog trips; cmd/noxfault's 4000-cycle window makes that tail, whose
// length swings with the seed, a tenth of the repetition, so the benchmark
// trips at 1000 cycles without a delivery. Outcomes and digests are the same.
const (
	faultLoad     = 0.03
	faultMulti    = 0.25 // share of 4-flit packets
	faultDrain    = 8000
	faultWatchdog = 1000
	spanBatch     = 1000 // cycles folded into one inject/Step span pair
)

var faultRetransmit = network.RetransmitConfig{Timeout: 128, Retries: 4}

func newFaults(seed uint64, tiny bool) *faultsWorkload {
	w := &faultsWorkload{topo: noc.Topology{Width: 8, Height: 8}, campaigns: 8, degrades: 8,
		cycles: 4000, warmCycles: 1000, killAt: 400, seed: seed}
	if tiny {
		w.topo = noc.Topology{Width: 4, Height: 4}
		w.campaigns, w.degrades, w.cycles, w.warmCycles, w.killAt = 2, 2, 400, 100, 100
	}
	return w
}

// setup computes the per-architecture warm images (fault-free, checker
// armed, driven to steady state once) and the seeded nested kill sequence.
func (w *faultsWorkload) setup(tr *tracer) error {
	for _, arch := range router.Archs {
		sp := tr.begin("warm-image", archKey(arch))
		img, err := w.warmImage(arch)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", arch, err)
		}
		w.warm[arch] = img
	}
	w.seq = degradeLinks(w.topo, w.seed)
	return nil
}

func (w *faultsWorkload) warmImage(arch router.Arch) ([]byte, error) {
	net, err := network.Build(network.Config{Topo: w.topo, Arch: arch, Check: check.New(check.All())})
	if err != nil {
		return nil, err
	}
	defer net.Close()
	rng := sim.NewRNG(w.seed ^ 0x5741524D) // "WARM"
	for cyc := int64(0); cyc < w.warmCycles; cyc++ {
		injectUniform(net, rng)
		net.Step()
	}
	return snapshot.Encode(net)
}

// injectUniform injects one cycle of the campaigns' uniform-random traffic.
func injectUniform(net *network.Network, rng *sim.RNG) {
	cores := net.Cores()
	for id := 0; id < cores; id++ {
		if rng.Float64() >= faultLoad {
			continue
		}
		dst := rng.Intn(cores - 1)
		if dst >= id {
			dst++
		}
		length := 1
		if rng.Float64() < faultMulti {
			length = 4
		}
		net.Inject(noc.NodeID(id), noc.NodeID(dst), length, 0)
	}
}

// campaignSeed decorrelates cell i's streams from the base seed by a
// golden-ratio stride, replayable from (base, i) alone.
func campaignSeed(base uint64, i int) uint64 { return base + uint64(i)*0x9E3779B97F4A7C15 }

// degradeLinks returns the kill sequence: every inter-router mesh link,
// shuffled by the seed. Cell f kills the first f entries, so dead sets nest.
func degradeLinks(topo noc.Topology, seed uint64) [][2]noc.NodeID {
	var links [][2]noc.NodeID
	for id := noc.NodeID(0); int(id) < topo.Nodes(); id++ {
		if nb, ok := topo.Neighbor(id, noc.East); ok {
			links = append(links, [2]noc.NodeID{id, nb})
		}
		if nb, ok := topo.Neighbor(id, noc.South); ok {
			links = append(links, [2]noc.NodeID{id, nb})
		}
	}
	rng := sim.NewRNG(seed ^ 0x44454752) // "DEGR"
	for i := len(links) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		links[i], links[j] = links[j], links[i]
	}
	return links
}

func (w *faultsWorkload) rep(tr *tracer) []cell {
	var cells []cell
	for _, arch := range router.Archs {
		for i := 0; i < w.campaigns; i++ {
			cells = append(cells, w.run(tr, w.transient(arch, i), nil))
		}
		for f := 0; f < w.degrades; f++ {
			cells = append(cells, w.run(tr, w.degrade(arch, f), nil))
		}
	}
	return cells
}

// faultCell describes one cell: what is injected into which network.
type faultCell struct {
	id   string
	arch router.Arch
	spec fault.Spec
	// retransmit, when set, arms end-to-end retransmission.
	retransmit *network.RetransmitConfig
	// warm, when set, is the image the freshly built network is restored
	// from before traffic starts.
	warm []byte
	// trafficSeed seeds the cell's own uniform-random packet stream.
	trafficSeed uint64
	// panicFails marks cells with no transient fault armed: nothing there
	// excuses a panic, so a recovered one fails the cell.
	panicFails bool
}

// transient is campaign idx of arch: bit-flips and drops on a network
// restored from the architecture's warm image.
func (w *faultsWorkload) transient(arch router.Arch, idx int) faultCell {
	spec := fault.Spec{Seed: campaignSeed(w.seed, idx), BitFlip: 1e-3, Drop: 5e-4}
	return faultCell{id: fmt.Sprintf("%s/transient/%d", archKey(arch), idx), arch: arch, spec: spec,
		warm: w.warm[arch], trafficSeed: spec.Seed ^ 0x54524146} // "TRAF"
}

// degrade is the cell with the first f links of the kill sequence dying at
// killAt and end-to-end retransmission armed. cmd/noxfault drives its
// degrade cells with one bursty (Pareto ON/OFF) stream shared by every cell;
// its realized load swings by tens of percent with the seed, so the
// benchmark drives them with the campaigns' uniform traffic from a per-cell
// stream instead, which keeps a repetition's work steady across seeds.
func (w *faultsWorkload) degrade(arch router.Arch, f int) faultCell {
	spec := fault.Spec{Seed: w.seed}
	for _, l := range w.seq[:f] {
		spec.DeadLinks = append(spec.DeadLinks, fault.DeadLink{A: l[0], B: l[1], At: w.killAt})
	}
	rt := faultRetransmit
	return faultCell{id: fmt.Sprintf("%s/degrade/%d", archKey(arch), f), arch: arch, spec: spec,
		retransmit: &rt, panicFails: true,
		trafficSeed: campaignSeed(w.seed, int(arch)*w.degrades+f) ^ 0x42555253} // "BURS"
}

// run executes one cell: build (and restore), the traffic window of inject
// then Step every cycle, drain, invariant sweep, classification — each under
// its span. obs, when set, is installed as the kernel observer (the activity
// pass). With the checker armed no fault-reachable panic should remain; one
// that does is recovered and recorded on the cell, as a detected outcome
// where a transient fault could have caused it.
func (w *faultsWorkload) run(tr *tracer, fc faultCell, obs func(int64, int)) (c cell) {
	c = cell{ID: fc.id, Arch: fc.arch, Cycles: w.cycles}
	sp := tr.begin("cell", c.ID)
	defer tr.end(sp)
	c.Panic = guard(func() {
		ck, inj := check.New(check.All()), fault.NewInjector(fc.spec)
		bsp := tr.begin("network.Build", c.ID)
		net, err := network.Build(network.Config{Topo: w.topo, Arch: fc.arch, Check: ck, Fault: inj,
			Retransmit: fc.retransmit, Observer: obs})
		tr.end(bsp)
		if err != nil {
			c.Fail = "build: " + err.Error()
			return
		}
		defer net.Close()
		if fc.warm != nil {
			rsp := tr.begin("snapshot.DecodeInto", c.ID)
			err = snapshot.DecodeInto(fc.warm, net)
			tr.end(rsp)
			if err != nil {
				c.Fail = "warm restore: " + err.Error()
				return
			}
		}
		var latSum int64
		net.OnDeliver = func(p *noc.Packet, cycle int64) { latSum += cycle - p.CreateCycle }

		rng := sim.NewRNG(fc.trafficSeed)
		tr.driveCycles(c.ID, w.cycles, spanBatch, func() { injectUniform(net, rng) }, net.Step)

		dsp := tr.begin("DrainChecked", c.ID)
		drainErr := net.DrainChecked(faultDrain, faultWatchdog)
		tr.end(dsp)
		isp := tr.begin("CheckInvariants", c.ID)
		net.CheckInvariants()
		tr.end(isp)

		// Classified as cmd/noxfault does. Only an undetected outcome —
		// traffic missing with zero violations and no watchdog trip — fails.
		var outcome string
		switch {
		case drainErr != nil:
			outcome = "detected:watchdog"
		case ck.Total() > 0:
			outcome = "detected:violations"
		case inj.Total() == 0 && net.Epochs() == 0 && net.CurrentFaults().Empty():
			outcome = "clean"
		case ck.Delivered() == ck.Injected():
			outcome = "masked"
		case net.Undeliverable() > 0 && ck.Delivered()+net.Undeliverable() == ck.Injected():
			outcome = "degraded"
		default:
			outcome = "UNDETECTED"
			c.Fail = fmt.Sprintf("undetected: %d packets missing, zero violations", ck.Injected()-ck.Delivered()-net.Undeliverable())
		}
		c.Window = *net.Counters()
		c.Epochs, c.Retransmits, c.Undeliverable = net.Epochs(), net.Retransmits(), net.Undeliverable()
		c.Digest = digest("%s %d %d %d %d %d %d %d %d %+v", outcome, ck.Injected(), ck.Delivered(), net.Undeliverable(),
			ck.Total(), inj.Total(), net.Epochs(), net.Retransmits(), latSum, c.Window)
	})
	if c.Panic != "" {
		c.Digest = digest("panic:%s", c.Panic)
		if fc.panicFails {
			c.Fail = c.Panic
		}
	}
	return c
}

// activeShare re-runs the NoX cells with a kernel observer.
func (w *faultsWorkload) activeShare() float64 {
	var a activity
	for i := 0; i < w.campaigns; i++ {
		w.run(nil, w.transient(router.NoX, i), a.observe)
	}
	for f := 0; f < w.degrades; f++ {
		w.run(nil, w.degrade(router.NoX, f), a.observe)
	}
	return a.share(componentCount(network.Config{Topo: w.topo, Arch: router.NoX}))
}

func (w *faultsWorkload) paperGap([]cell) float64 { return 0 }

func (w *faultsWorkload) autoShards() int { return network.AutoShards(w.topo.Nodes()) }

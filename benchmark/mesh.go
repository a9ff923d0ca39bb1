package main

import (
	"repro/internal/network"
	"repro/internal/noc"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// meshWorkload steps one 32x32 NoX mesh under dense uniform single-flit
// traffic. Its working set is far larger than an 8x8 network's and it is the
// only workload on which the library-default shard count leaves serial, so
// it is the evidence for the sharding decision. The network is built,
// warmed and snapshotted in set-up; every repetition restores the image into a
// fresh network and steps the same window, so repetitions do identical simulated work.
type meshWorkload struct {
	topo     noc.Topology
	perCycle int // packets injected per cycle
	warm     int64
	cycles   int64
	seed     uint64
	image    []byte
}

func newMesh(seed uint64, tiny bool) *meshWorkload {
	w := &meshWorkload{topo: noc.Topology{Width: 32, Height: 32}, perCycle: 64, warm: 500, cycles: 3000, seed: seed}
	if tiny {
		w.topo, w.perCycle, w.warm, w.cycles = noc.Topology{Width: 16, Height: 16}, 16, 50, 100
	}
	return w
}

func (w *meshWorkload) config() network.Config {
	return network.Config{Topo: w.topo, Arch: router.NoX}
}

// setup builds the network, warms it and keeps its image.
func (w *meshWorkload) setup(tr *tracer) error {
	net, err := w.build(tr, "setup")
	if err != nil {
		return err
	}
	defer net.Close()
	sp := tr.begin("warm-up", "setup")
	rng := sim.NewRNG(w.seed ^ 0x5741524D) // "WARM"
	for cyc := int64(0); cyc < w.warm; cyc++ {
		w.inject(net, rng)
		net.Step()
	}
	tr.end(sp)
	sp = tr.begin("snapshot.Encode", "setup")
	w.image, err = snapshot.Encode(net)
	tr.end(sp)
	return err
}

func (w *meshWorkload) build(tr *tracer, id string) (*network.Network, error) {
	sp := tr.begin("network.Build", id)
	defer tr.end(sp)
	return network.Build(w.config())
}

func (w *meshWorkload) inject(net *network.Network, rng *sim.RNG) {
	cores := net.Cores()
	for j := 0; j < w.perCycle; j++ {
		src, dst := noc.NodeID(rng.Intn(cores)), noc.NodeID(rng.Intn(cores))
		if src != dst {
			net.Inject(src, dst, 1, 0)
		}
	}
}

// rep restores the warm image into a fresh network (a restore target must
// be freshly built) and steps the window.
func (w *meshWorkload) rep(tr *tracer) []cell {
	c := cell{ID: "window", Arch: router.NoX, Cycles: w.cycles}
	sp := tr.begin("cell", c.ID)
	defer tr.end(sp)
	panicked := guard(func() {
		net, err := w.build(tr, c.ID)
		if err != nil {
			c.Fail = "build: " + err.Error()
			return
		}
		defer net.Close()
		rsp := tr.begin("snapshot.DecodeInto", c.ID)
		err = snapshot.DecodeInto(w.image, net)
		tr.end(rsp)
		if err != nil {
			c.Fail = "restore: " + err.Error()
			return
		}
		var latSum, delivered int64
		net.OnDeliver = func(p *noc.Packet, cycle int64) {
			latSum += cycle - p.CreateCycle
			delivered++
		}
		start, injected := *net.Counters(), net.Injected()
		w.window(tr, c.ID, net)
		c.Window = net.Counters().Sub(start)
		c.Digest = digest("%d %d %d %+v", net.Injected()-injected, delivered, latSum, c.Window)
		if c.Window.LinkFlit == 0 {
			c.Fail = "no flit moved"
		}
	})
	if panicked != "" {
		c.Fail = panicked
	}
	return []cell{c}
}

// window steps the timed cycles: inject then Step, every cycle.
func (w *meshWorkload) window(tr *tracer, id string, net *network.Network) {
	rng := sim.NewRNG(w.seed ^ 0x54524146) // "TRAF"
	tr.driveCycles(id, w.cycles, 250, func() { w.inject(net, rng) }, net.Step)
}

// activeShare steps a fifth of the window on a second network restored from
// the same image, with a kernel observer attached.
func (w *meshWorkload) activeShare() float64 {
	var a activity
	cfg := w.config()
	cfg.Observer = a.observe
	net, err := network.Build(cfg)
	if err != nil {
		return 0
	}
	defer net.Close()
	components := net.Kernel().ActiveComponents()
	if err := snapshot.DecodeInto(w.image, net); err != nil {
		return 0
	}
	short := *w
	short.cycles = w.cycles / 5
	short.window(nil, "", net)
	return a.share(components)
}

func (w *meshWorkload) paperGap([]cell) float64 { return 0 }

func (w *meshWorkload) autoShards() int { return network.AutoShards(w.topo.Nodes()) }

package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/buffer"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/noc"
	"repro/internal/physical"
	"repro/internal/power"
	"repro/internal/probe"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// rigs measures each simulator layer in isolation, calling only that
// module's public functions. The numbers do not depend on the workload; a
// traced run of any workload reports all of them, so a change to one layer
// shows in its rig whichever workload the driver happened to trace.
type rigs struct {
	tiny bool
	seed uint64
	// flightDir receives the flight recorder's (never written) dumps.
	flightDir string
	out       map[string]float64
	// stepSamples is how many Steps the step_us percentiles were taken over.
	stepSamples int
	// problems lists rig self-checks that failed; any entry makes the run
	// incorrect.
	problems []string
}

// n scales an iteration count down for the smoke test.
func (r *rigs) n(full int) int {
	if r.tiny {
		if full = full / 40; full < 4 {
			full = 4
		}
	}
	return full
}

func (r *rigs) failf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// nsPer times n calls of fn and returns nanoseconds per call.
func nsPer(n int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// medianOf runs fn k times and returns the median of the durations it
// reports.
func medianOf(k int, fn func() time.Duration) time.Duration {
	ns := make([]float64, k)
	for i := range ns {
		ns[i] = float64(fn())
	}
	return time.Duration(median(ns))
}

func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func (r *rigs) run() {
	r.out = map[string]float64{}
	r.simRig()
	r.routerRig()
	r.coreRig()
	r.nocRig()
	r.inputsRig()
	r.routingRig()
	r.snapshotRig()
	r.networkRig()
	r.shadowRig()
	r.harnessRig()
	r.poolRig()
}

// ---- sim: stub components on a bare kernel (the generic walk; networks
// bind typed lanes on top of the same active-set bookkeeping).

type stubComp struct {
	busy bool
	work uint64
}

func (s *stubComp) Compute(int64) { s.work++ }
func (s *stubComp) Commit(int64)  {}
func (s *stubComp) Quiet() bool   { return !s.busy }

func (r *rigs) simRig() {
	const comps = 1024
	build := func(busyEvery int) (*sim.Kernel, []*stubComp) {
		k := sim.NewKernel()
		cs := make([]*stubComp, comps)
		for i := range cs {
			cs[i] = &stubComp{busy: busyEvery > 0 && i%busyEvery == 0}
			k.Add(cs[i])
		}
		k.Step() // quiet components park
		return k, cs
	}
	steps := r.n(4000)

	k, cs := build(1)
	r.out["sim.walk_ns_per_comp.dense"] = nsPer(steps, k.Step) / comps
	if cs[0].work != uint64(steps)+1 {
		r.failf("sim rig: dense component evaluated %d times, want %d", cs[0].work, steps+1)
	}

	k, cs = build(64)
	r.out["sim.walk_ns_per_comp.sparse"] = nsPer(steps*8, k.Step) / (comps / 64)
	if cs[1].work != 1 {
		r.failf("sim rig: parked component evaluated %d times, want 1", cs[1].work)
	}

	k, _ = build(0)
	r.out["sim.idle_step_ns"] = nsPer(steps*50, k.Step)
	// One parked component woken, evaluated and parked again per step.
	h := sim.Handle(comps / 2)
	r.out["sim.wake_ns"] = nsPer(steps*50, func() { k.Wake(h); k.Step() })
}

// ---- router: one router of each architecture at the centre of a 3x3 mesh,
// inputs driven by the rig, outputs into credit-returning sinks.

type rigSink struct {
	link  *noc.Link
	arena *noc.Arena
	flits int
}

func (s *rigSink) Receive(f *noc.Flit, _ int64) {
	s.flits++
	s.link.ReturnCredit()
	if f.Encoded {
		s.arena.Release(f) // the consumer owns a superposition
	}
}

func (r *rigs) routerRig() {
	for _, arch := range router.Archs {
		r.out["router.cycle_ns."+archKey(arch)] = r.routerCycle(arch)
	}
}

// routerCycle scripts 2-way then 4-way contention for the East output,
// letting the router drain between bursts, and returns ns per router cycle
// (Compute, Commit and the ten stub links' commits).
func (r *rigs) routerCycle(arch router.Arch) float64 {
	topo := noc.Topology{Width: 3, Height: 3}
	arena := &noc.Arena{}
	rt := router.New(router.Config{Arch: arch, Node: 4, Routes: routing.NewTable(topo), Counters: &power.Counters{}, Arena: arena})
	var in, out [noc.NumPorts]*noc.Link
	sinks := make([]rigSink, noc.NumPorts)
	for p := noc.Port(0); p < noc.NumPorts; p++ {
		in[p] = noc.NewLink(rt.InputReceiver(p), 4)
		rt.SetInputLink(p, in[p])
		out[p] = noc.NewLink(&sinks[p], 4)
		sinks[p] = rigSink{link: out[p], arena: arena}
		rt.SetOutputLink(p, out[p])
	}
	// Single-flit packets bound East of the centre (node 5), one per input;
	// each burst re-arms the flits it sends, which is safe once the router
	// has drained.
	senders := []noc.Port{noc.West, noc.North, noc.South, noc.Local}
	flits := make([]noc.Flit, len(senders))
	pkts := make([]*noc.Packet, len(senders))
	for i := range pkts {
		pkts[i] = noc.NewPacket(uint64(i+1), 3, 5, 1, 0, 0)
	}
	var cycle int64
	step := func() {
		rt.Compute(cycle)
		rt.Commit(cycle)
		for p := noc.Port(0); p < noc.NumPorts; p++ {
			in[p].Commit(cycle)
			out[p].Commit(cycle)
		}
		cycle++
	}
	burst := func(ways int) {
		for i := 0; i < ways; i++ {
			flits[i] = noc.Flit{Packet: pkts[i], Raw: pkts[i].Payloads[0]}
			in[senders[i]].Send(&flits[i])
		}
		step()
		for rt.BufferedFlits() > 0 || !rt.Quiet() {
			step()
		}
	}
	bursts := r.n(20000)
	start := time.Now()
	for i := 0; i < bursts; i++ {
		burst(2)
		burst(4)
	}
	elapsed := time.Since(start)
	if sinks[noc.East].flits != 6*bursts {
		r.failf("router rig %s: East sink saw %d flits for %d sent", arch, sinks[noc.East].flits, 6*bursts)
	}
	return float64(elapsed.Nanoseconds()) / float64(cycle)
}

// ---- core: the NoX output control and input port driven directly.

func (r *rigs) coreRig() {
	arena := &noc.Arena{}
	mk := func(id uint64) *noc.Flit {
		f := noc.NewFlit(noc.NewPacket(id, 0, 1, 1, 0, 0), 0)
		f.OutPort = noc.East
		return f
	}

	// Output control: the paper's Figure 2 stimulus in a loop — a lone
	// flit, an idle cycle, a two-way collision, then the loser alone.
	const n = int(noc.NumPorts)
	var ctl core.OutputControl
	ctl.Init(n, nil, arena, nil)
	a, b, c := mk(1), mk(2), mk(3)
	offers := make([]*noc.Flit, n)
	bad := 0
	rounds := r.n(200000)
	perCycle := nsPer(rounds, func() {
		clear(offers)
		offers[0] = a
		if d := ctl.Decide(offers, true); d.Out != a {
			bad++
		}
		ctl.Commit()
		clear(offers)
		ctl.Decide(offers, true)
		ctl.Commit()
		offers[0], offers[1] = c, b
		d := ctl.Decide(offers, true)
		ctl.Commit()
		if d.Out == nil || !d.Out.Encoded || d.Out.Raw != b.Raw^c.Raw {
			bad++
			return
		}
		arena.Release(d.Out)
		loser := 1 - d.Serviced
		want := offers[loser]
		clear(offers)
		offers[loser] = want
		if d = ctl.Decide(offers, true); d.Out != want {
			bad++
		}
		ctl.Commit()
	}) / 4
	r.out["core.decide_ns"] = perCycle
	if bad > 0 {
		r.failf("core rig: output control left the Figure 2 script %d times", bad)
	}

	// Input port: one raw flit straight through, then a two-member chain
	// (an encoded B^C latched, B recovered by decode, C presented raw).
	var port core.InputPort
	row := make([]noc.Port, 2)
	row[1] = noc.East
	port.Init(4, make([]*noc.Flit, buffer.SlotsFor(4)), row, arena)
	pa, pb, pc := noc.NewPacket(1, 0, 1, 1, 0, 0), noc.NewPacket(2, 0, 1, 1, 0, 0), noc.NewPacket(3, 0, 1, 1, 0, 0)
	pair := make([]*noc.Flit, 2)
	serve := func(want *noc.Packet, decoded bool) {
		f, dec, ok := port.Offer()
		if !ok || dec != decoded || f.Packet != want {
			bad++
			return
		}
		port.Service()
		port.Commit()
		if dec {
			arena.Release(f) // the consumer owns a serviced decode copy
		}
	}
	bad = 0
	const portCycles = 5
	perCycle = nsPer(rounds, func() {
		fa := arena.NewFlit(pa, 0)
		port.Receive(fa)
		serve(pa, false)
		arena.Release(fa)

		fb, fc := arena.NewFlit(pb, 0), arena.NewFlit(pc, 0)
		pair[0], pair[1] = fb, fc
		port.Receive(arena.Encode(pair))
		port.Receive(fc)
		port.Commit()    // latch cycle: the encoded head enters the register
		serve(pb, true)  // register ^ head recovers B; the port retires B and the register
		serve(pc, false) // the chain's last member goes out raw
		arena.Release(fc)
	}) / portCycles
	r.out["core.inputport_ns"] = perCycle
	if bad > 0 || arena.Outstanding() != 0 {
		r.failf("core rig: input port left its script %d times, %d pooled flits leaked", bad, arena.Outstanding())
	}
}

// ---- noc: one link cycle and one arena round trip.

func (r *rigs) nocRig() {
	arena := &noc.Arena{}
	var sink rigSink
	link := noc.NewLink(&sink, 4)
	sink = rigSink{link: link, arena: arena}
	pkt := noc.NewPacket(1, 0, 1, 1, 0, 0)
	f := noc.NewFlit(pkt, 0)
	var cycle int64
	loops := r.n(2_000_000)
	r.out["noc.link_cycle_ns"] = nsPer(loops, func() {
		link.Send(f)
		link.Commit(cycle) // delivers; the sink's credit return lands in the same commit
		cycle++
	})
	if sink.flits != loops || link.Credits() != 4 {
		r.failf("noc rig: link delivered %d of %d flits, %d credits left", sink.flits, loops, link.Credits())
	}
	r.out["noc.arena_ns"] = nsPer(loops, func() { arena.Release(arena.NewFlit(pkt, 0)) })
}

// ---- traffic, trace, stats: the inputs and the statistics record.

func (r *rigs) inputsRig() {
	loops := r.n(1_000_000)
	hits := 0
	bern := &traffic.Bernoulli{P: 0.1, RNG: sim.NewRNG(r.seed)}
	r.out["traffic.tick_ns.bernoulli"] = nsPer(loops, func() {
		if bern.Tick() {
			hits++
		}
	})
	ss := traffic.NewSelfSimilar(0.1, sim.NewRNG(r.seed))
	r.out["traffic.tick_ns.selfsimilar"] = nsPer(loops, func() {
		if ss.Tick() {
			hits++
		}
	})
	uni := traffic.Uniform{Topo: noc.Topology{Width: 8, Height: 8}}
	rng := sim.NewRNG(r.seed)
	r.out["traffic.dest_ns.uniform"] = nsPer(loops, func() {
		if uni.Dest(5, rng) == 5 {
			hits++
		}
	})
	if hits == 0 {
		r.failf("traffic rig: no process ever fired")
	}

	profile, _ := trace.WorkloadByName("tpcc")
	cpuCycles := int64(r.n(10_000))
	var tr *trace.Trace
	r.out["trace.generate_ms"] = ms(medianOf(3, func() time.Duration {
		return timed(func() { tr = trace.Generate(profile, noc.Topology{Width: 8, Height: 8}, cpuCycles, r.seed) })
	}))
	r.out["trace.events"] = float64(len(tr.Events))

	packets := r.n(200_000)
	col := stats.NewCollector(0, 1<<40)
	col.Reserve(packets)
	pkt := noc.NewPacket(1, 0, 1, 1, 0, 0)
	lat := sim.NewRNG(r.seed)
	r.out["stats.record_ns"] = nsPer(packets, func() {
		pkt.Measured = false
		col.OnCreate(pkt, 10)
		pkt.DeliverCycle = pkt.CreateCycle + 10 + int64(lat.Intn(500))
		col.OnDeliver(pkt, pkt.DeliverCycle)
	})
	r.out["stats.percentiles_ms"] = ms(timed(func() { col.LatencyPercentilesNs(0.76) }))
	if col.Delivered() != int64(packets) {
		r.failf("stats rig: recorded %d of %d packets", col.Delivered(), packets)
	}
}

// ---- routing and snapshot.

func (r *rigs) routingRig() {
	small, big := noc.Topology{Width: 8, Height: 8}, noc.Topology{Width: 32, Height: 32}
	if r.tiny {
		big = noc.Topology{Width: 16, Height: 16}
	}
	r.out["routing.table_build_us"] = us(medianOf(5, func() time.Duration {
		return timed(func() { routing.NewTable(small) })
	}))
	r.out["routing.table_build_us.mesh32"] = us(medianOf(3, func() time.Duration {
		return timed(func() { routing.NewTable(big) })
	}))
	dead := routing.NewFaultSet(nil, [][2]noc.NodeID{{9, 10}, {27, 35}, {44, 45}})
	var tbl *routing.Table
	r.out["routing.updown_rebuild_us"] = us(medianOf(5, func() time.Duration {
		return timed(func() { tbl = routing.NewFaultTable(noc.MeshSystem(small), dead) })
	}))
	if !tbl.Reachable(9, 10) {
		r.failf("routing rig: up*/down* table lost a reachable pair")
	}
}

// loaded builds an 8x8 network and fills it with wormhole traffic: every
// node queues packets packets of length flits to random destinations.
func loaded(cfg network.Config, packets, length int, seed uint64) (*network.Network, *sim.RNG) {
	net := network.New(cfg)
	rng := sim.NewRNG(seed)
	nodes := net.Cores()
	for n := 0; n < nodes; n++ {
		for k := 0; k < packets; k++ {
			if dst := noc.NodeID(rng.Intn(nodes)); dst != noc.NodeID(n) {
				net.Inject(noc.NodeID(n), dst, length, 0)
			}
		}
	}
	return net, rng
}

func (r *rigs) snapshotRig() {
	cfg := network.Config{Arch: router.NoX}
	net, _ := loaded(cfg, 4, 8, r.seed)
	defer net.Close()
	for i := 0; i < 100; i++ {
		net.Step()
	}
	var img []byte
	var err error
	r.out["snapshot.encode_ms"] = ms(medianOf(5, func() time.Duration {
		return timed(func() { img, err = snapshot.Encode(net) })
	}))
	if err != nil {
		r.failf("snapshot rig: encode: %v", err)
		return
	}
	r.out["snapshot.image_kb"] = float64(len(img)) / 1024
	r.out["snapshot.decode_ms"] = ms(medianOf(5, func() time.Duration {
		return timed(func() {
			back, derr := snapshot.Decode(img, cfg)
			if derr != nil {
				err = derr
				return
			}
			if back.Cycle() != net.Cycle() || back.Outstanding() != net.Outstanding() {
				err = fmt.Errorf("restored cycle %d / %d outstanding, want %d / %d", back.Cycle(), back.Outstanding(), net.Cycle(), net.Outstanding())
			}
			back.Close()
		})
	}))
	if err != nil {
		r.failf("snapshot rig: decode: %v", err)
	}
}

// ---- network: construction, injection, stepping in three regimes, drain.

// steadyStep returns the mean Step time in microseconds of a saturated 8x8
// network: 64-flit wormhole packets, source queues topped up between timed
// chunks so the fabric never runs dry.
func steadyStep(cfg network.Config, steps int, seed uint64) float64 {
	net, rng := loaded(cfg, 4, 64, seed)
	defer net.Close()
	nodes := net.Cores()
	for i := 0; i < 200; i++ {
		net.Step()
	}
	const chunk = 200
	var elapsed time.Duration
	done := 0
	for done < steps {
		for n := 0; n < nodes; n++ {
			if net.QueueLen(noc.NodeID(n)) < 2 {
				if dst := noc.NodeID(rng.Intn(nodes)); dst != noc.NodeID(n) {
					net.Inject(noc.NodeID(n), dst, 64, 0)
				}
			}
		}
		start := time.Now()
		for i := 0; i < chunk; i++ {
			net.Step()
		}
		elapsed += time.Since(start)
		done += chunk
	}
	return us(elapsed) / float64(done)
}

func (r *rigs) networkRig() {
	cfg := network.Config{Arch: router.NoX}
	bigTopo := noc.Topology{Width: 32, Height: 32}
	perCycle := 64
	if r.tiny {
		bigTopo, perCycle = noc.Topology{Width: 16, Height: 16}, 16
	}
	r.out["network.build_ms"] = ms(medianOf(5, func() time.Duration {
		return timed(func() { network.New(cfg).Close() })
	}))
	r.out["network.build_ms.mesh32"] = ms(medianOf(3, func() time.Duration {
		return timed(func() { network.New(network.Config{Topo: bigTopo, Arch: router.NoX}).Close() })
	}))

	// Injection: one packet per node per round, drained (untimed) between
	// rounds.
	net := network.New(cfg)
	rng := sim.NewRNG(r.seed)
	nodes := net.Cores()
	var injectTime time.Duration
	rounds := r.n(400)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		for n := 0; n < nodes; n++ {
			net.Inject(noc.NodeID(n), noc.NodeID((n+1+rng.Intn(nodes-1))%nodes), 1, 0)
		}
		injectTime += time.Since(start)
		if !net.Drain(2000) {
			r.failf("network rig: injection round did not drain")
			break
		}
	}
	r.out["network.inject_ns"] = float64(injectTime.Nanoseconds()) / float64(rounds*nodes)

	// Loaded stepping at a mid-ladder load (0.15 flits/node/cycle), every
	// Step timed on its own for the percentiles.
	steps := r.n(20000)
	durs := make([]time.Duration, steps)
	for i := range durs {
		for n := 0; n < nodes; n++ {
			if rng.Float64() < 0.15 {
				net.Inject(noc.NodeID(n), noc.NodeID((n+1+rng.Intn(nodes-1))%nodes), 1, 0)
			}
		}
		start := time.Now()
		net.Step()
		durs[i] = time.Since(start)
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	r.out["network.step_us_p50"] = us(durs[steps/2])
	r.out["network.step_us_p99"] = us(durs[steps*99/100])
	r.stepSamples = steps

	// Drained: the idle step and the bulk clock advance.
	if !net.Drain(5000) {
		r.failf("network rig: loaded network did not drain")
	}
	net.Step()
	r.out["network.idle_step_ns"] = nsPer(r.n(400000), net.Step)
	r.out["network.ffwd_ns"] = nsPer(r.n(400000), func() { net.FastForwardIdle(1000) })
	net.Close()

	for _, arch := range router.Archs {
		r.out["network.steady_step_us."+archKey(arch)] = steadyStep(network.Config{Arch: arch}, r.n(8000), r.seed)
	}

	r.out["network.drain_ms"] = ms(medianOf(5, func() time.Duration {
		full, _ := loaded(cfg, 4, 8, r.seed)
		defer full.Close()
		return timed(func() {
			if !full.Drain(100000) {
				r.failf("network rig: drain left %d packets", full.Outstanding())
			}
		})
	}))
	r.out["network.check_invariants_us"] = us(medianOf(5, func() time.Duration {
		ck := check.New(check.All())
		armed, _ := loaded(network.Config{Arch: router.NoX, Check: ck}, 2, 4, r.seed)
		defer armed.Close()
		armed.Drain(100000)
		d := timed(armed.CheckInvariants)
		if ck.Total() != 0 {
			r.failf("network rig: %d invariant violations on a fault-free drain", ck.Total())
		}
		return d
	}))

	// Sharding on the big mesh: the same injected traffic stepped serially
	// and at the library-default shard count.
	stepBig := func(shards int) float64 {
		big := network.New(network.Config{Topo: bigTopo, Arch: router.NoX, Shards: shards})
		defer big.Close()
		rng := sim.NewRNG(r.seed)
		cores := big.Cores()
		cycle := func() {
			for j := 0; j < perCycle; j++ {
				if src, dst := noc.NodeID(rng.Intn(cores)), noc.NodeID(rng.Intn(cores)); src != dst {
					big.Inject(src, dst, 1, 0)
				}
			}
			big.Step()
		}
		for i := 0; i < r.n(200); i++ {
			cycle()
		}
		return nsPer(r.n(400), cycle) / 1e3
	}
	serial, auto := stepBig(1), stepBig(0)
	r.out["network.step_us.mesh32.serial"] = serial
	r.out["network.shard_speedup.mesh32"] = serial / auto
}

// ---- check, fault, probe, telemetry: what arming each shadow costs a
// saturated NoX step, as armed / bare - 1. The fault figure includes the
// checker an injector requires.

func (r *rigs) shadowRig() {
	variants := []struct {
		key string
		cfg func() network.Config
	}{
		{"bare", func() network.Config { return network.Config{Arch: router.NoX} }},
		{"check.step_overhead_pct", func() network.Config {
			return network.Config{Arch: router.NoX, Check: check.New(check.All())}
		}},
		{"fault.step_overhead_pct", func() network.Config {
			return network.Config{Arch: router.NoX, Check: check.New(check.All()),
				Fault: fault.NewInjector(fault.Spec{Seed: r.seed, BitFlip: 1e-6, Drop: 1e-7})}
		}},
		{"probe.step_overhead_pct", func() network.Config {
			return network.Config{Arch: router.NoX, Probe: probe.New(probe.Config{})}
		}},
		{"telemetry.recorder_overhead_pct", func() network.Config {
			rec := telemetry.NewRecorder(telemetry.RecorderConfig{Dir: r.flightDir, Label: "rig",
				PeriodNs: physical.ClockPeriodNs(router.NoX)})
			return network.Config{Arch: router.NoX, Probe: rec.Probe()}
		}},
	}
	// Interleave the variants and keep each one's fastest round: the ratio
	// of two minima is steadier than the ratio of two means.
	best := make([]float64, len(variants))
	for round := 0; round < 5; round++ {
		for i, v := range variants {
			if t := steadyStep(v.cfg(), r.n(3000), r.seed); round == 0 || t < best[i] {
				best[i] = t
			}
		}
	}
	for i, v := range variants[1:] {
		r.out[v.key] = 100 * (best[i+1]/best[0] - 1)
	}
}

// ---- harness, exp, batch: the experiment drivers.

func (r *rigs) harnessRig() {
	for _, rate := range []float64{200, 1800, 3400} {
		cfg := harness.SyntheticConfig{Arch: router.NoX, Pattern: "uniform", RateMBps: rate, Seed: r.seed,
			WarmupCycles: int64(r.n(500)), MeasureCycles: int64(r.n(2000)), DrainCycles: 5000}
		d := timed(func() {
			if _, err := harness.RunSynthetic(cfg); err != nil {
				r.failf("harness rig: NoX at %.0f MB/s: %v", rate, err)
			}
		})
		r.out[fmt.Sprintf("harness.nox_ns_per_cycle.r%.0f", rate)] =
			float64(d.Nanoseconds()) / float64(cfg.WarmupCycles+cfg.MeasureCycles)
	}

	// Warm-start: a warm-up-dominated sweep run cold, then with the warm
	// phase shared per architecture through a snapshot. Same CSV either way.
	base := harness.SyntheticConfig{Pattern: "uniform", Seed: r.seed, Shards: 1,
		WarmupCycles: int64(r.n(1500)), MeasureCycles: 400, DrainCycles: 8000, WarmRateMBps: 600}
	rates := []float64{400, 600, 800}
	var csv [2]string
	var took [2]time.Duration
	for i := range took {
		cfg := base
		cfg.WarmStart = i == 1
		took[i] = timed(func() {
			pts, err := harness.SweepSynthetic(cfg, rates, nil)
			if err != nil {
				r.failf("harness rig: warm-start sweep: %v", err)
			}
			csv[i] = harness.SweepCSV("uniform", pts)
		})
	}
	r.out["harness.warmstart_speedup"] = float64(took[0]) / float64(took[1])
	if csv[0] != csv[1] {
		r.failf("harness rig: warm-start sweep CSV differs from the cold sweep")
	}
}

// poolRig runs eight independent NoX points three ways: one after another,
// fanned over a worker pool, and stepped together as one lockstep cohort.
// No workload uses the pool or the cohort; the ratios are recorded so their
// keep-or-delete decision rests on numbers.
func (r *rigs) poolRig() {
	cfgs := make([]harness.SyntheticConfig, 8)
	for i := range cfgs {
		cfgs[i] = harness.SyntheticConfig{Arch: router.NoX, Pattern: "uniform", RateMBps: 900,
			WarmupCycles: 200, MeasureCycles: int64(r.n(1500)), DrainCycles: 4000,
			Seed: r.seed + uint64(i)*101, Shards: 1}
	}
	fan := func(pool *exp.Pool) time.Duration {
		return medianOf(3, func() time.Duration {
			return timed(func() {
				_, err := exp.Map(context.Background(), pool, len(cfgs),
					func(_ context.Context, i int) (harness.RunResult, error) { return harness.RunSynthetic(cfgs[i]) })
				if err != nil {
					r.failf("exp rig: %v", err)
				}
			})
		})
	}
	serial := fan(nil)
	r.out["exp.pool_speedup"] = float64(serial) / float64(fan(exp.NewPool(0)))
	cohort := medianOf(3, func() time.Duration {
		return timed(func() {
			_, errs := harness.RunSyntheticCohort(cfgs)
			for _, err := range errs {
				if err != nil {
					r.failf("batch rig: %v", err)
				}
			}
		})
	})
	r.out["batch.cohort_speedup"] = float64(serial) / float64(cohort)
}

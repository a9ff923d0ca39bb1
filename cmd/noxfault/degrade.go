// Degradation-sweep mode (-degrade K): how gracefully does each router
// architecture shed permanent link failures? The sweep kills 0..K
// inter-router links — a seeded, nested sequence, so the f-link cell's dead
// set is a superset of the (f-1)-link cell's — drives bursty (self-similar)
// traffic over the survivors with end-to-end retransmission armed, and
// reports sustained throughput, latency, and a full loss accounting per
// fault count. Like the campaign mode, the sweep is a pure function of its
// seed: the report is byte-identical across -parallel and -shards settings,
// and replayable from the printed link sequence alone.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/check"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/noc"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// dcell is one (architecture, failed-link-count) degradation result.
type dcell struct {
	arch   router.Arch
	failed int
	ok     bool
	why    string

	injected      int64
	delivered     int64
	undeliverable int64
	violations    int64
	retransmits   int64
	acked         int64
	ackLost       int64
	exhausted     int64
	dupes         int64
	epochs        int64
	lastEpoch     int64
	partitioned   int
	latSum        int64
	latN          int64
	endCycle      int64
}

// meanLat returns the mean create-to-deliver latency in cycles (0 when
// nothing was delivered).
func (c dcell) meanLat() float64 {
	if c.latN == 0 {
		return 0
	}
	return float64(c.latSum) / float64(c.latN)
}

// thpt returns delivered packets per cycle over the cell's full run.
func (c dcell) thpt() float64 {
	if c.endCycle == 0 {
		return 0
	}
	return float64(c.delivered) / float64(c.endCycle)
}

// degradeLinks returns the sweep's kill sequence: every undirected
// inter-router mesh link, Fisher-Yates shuffled by the seed. Cell f kills
// the first f entries, so the dead sets nest and the degradation curve is
// monotone in the fault pattern, not re-rolled per point.
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

// degradeSpec builds cell f's fault spec: the first f links of the kill
// sequence, dead at killAt, no transient rates.
func degradeSpec(seq [][2]noc.NodeID, f int, killAt int64, seed uint64) fault.Spec {
	s := fault.Spec{Seed: seed}
	for _, l := range seq[:f] {
		s.DeadLinks = append(s.DeadLinks, fault.DeadLink{A: l[0], B: l[1], At: killAt})
	}
	return s
}

// degradeTraffic builds one cell's bursty sources: per-core self-similar
// ON/OFF processes and destination streams, forked from the cell seed
// exactly like the harness does, so the packet sequence depends only on
// (seed, arch, f).
type degradeTraffic struct {
	procs []traffic.Process
	dests []*sim.RNG
}

func newDegradeTraffic(cores int, load float64, seed uint64) degradeTraffic {
	base := sim.NewRNG(seed ^ 0x42555253) // "BURS"
	tr := degradeTraffic{
		procs: make([]traffic.Process, cores),
		dests: make([]*sim.RNG, cores),
	}
	for i := range tr.procs {
		tr.procs[i] = traffic.NewSelfSimilar(load, base.Fork(uint64(i)))
		tr.dests[i] = base.Fork(uint64(1000 + i))
	}
	return tr
}

// injectCycle injects one cycle of the cell's traffic.
func (tr degradeTraffic) injectCycle(net *network.Network, multi float64) {
	cores := len(tr.procs)
	for id := 0; id < cores; id++ {
		if !tr.procs[id].Tick() {
			continue
		}
		rng := tr.dests[id]
		dst := rng.Intn(cores - 1)
		if dst >= id {
			dst++
		}
		length := 1
		if multi > 0 && rng.Float64() < multi {
			length = 4
		}
		net.Inject(noc.NodeID(id), noc.NodeID(dst), length, 0)
	}
}

// attachLatency hooks the cell's latency accumulator onto the network.
func (c *dcell) attachLatency(net *network.Network) {
	net.OnDeliver = func(p *noc.Packet, cycle int64) {
		c.latSum += cycle - p.CreateCycle
		c.latN++
	}
}

// finishDegradeCell drains and classifies one degradation cell — the
// post-traffic half of runDegradeCell. A cell is ok when the run ends
// with zero violations and every injected packet either delivered or
// retired as undeliverable; anything else is an UNDETECTED accounting hole.
func finishDegradeCell(c *dcell, net *network.Network, ck *check.Checker, p params) {
	defer func() {
		c.injected, c.delivered = ck.Injected(), ck.Delivered()
		c.undeliverable = net.Undeliverable()
		c.violations = ck.Total()
		c.retransmits, c.acked, c.ackLost, c.exhausted = net.RetransmitStats()
		c.dupes = net.DupSuppressed()
		c.epochs, c.lastEpoch = net.Epochs(), net.LastEpochCycle()
		c.partitioned = net.PartitionedPairs()
		c.endCycle = net.Cycle()
		if r := recover(); r != nil {
			c.ok = false
			c.why = "panic: " + firstLine(fmt.Sprint(r))
		}
	}()
	drainErr := net.DrainChecked(p.drain, p.watchdog)
	net.CheckInvariants()
	switch {
	case drainErr != nil:
		c.ok = false
		c.why = "wedged: " + firstLine(drainErr.Error())
	case ck.Total() > 0:
		c.ok = false
		c.why = fmt.Sprintf("%d violations", ck.Total())
	case ck.Delivered()+net.Undeliverable() != ck.Injected():
		c.ok = false
		c.why = fmt.Sprintf("%d packets unaccounted", ck.Injected()-ck.Delivered()-net.Undeliverable())
	default:
		c.ok = true
	}
}

// runDegradeCell executes one cell.
func runDegradeCell(arch router.Arch, f int, seq [][2]noc.NodeID, killAt int64, rt network.RetransmitConfig, p params) (c dcell) {
	c.arch, c.failed = arch, f
	spec := degradeSpec(seq, f, killAt, p.template.Seed)
	ck := check.New(check.All())
	inj := fault.NewInjector(spec)
	net, err := network.Build(network.Config{
		Topo: p.topo, Arch: arch, BufferDepth: p.bufferDepth,
		Shards: p.shards, Check: ck, Fault: inj, Retransmit: &rt,
	})
	if err != nil {
		c.why = "build: " + err.Error()
		return c
	}
	defer net.Close()
	c.attachLatency(net)
	tr := newDegradeTraffic(net.Cores(), p.load, spec.Seed)
	for cyc := int64(0); cyc < p.cycles; cyc++ {
		tr.injectCycle(net, p.multi)
		net.Step()
	}
	finishDegradeCell(&c, net, ck, p)
	return c
}

// runDegradeMode runs the full sweep and writes the report (and CSV).
func runDegradeMode(stdout io.Writer, archs []router.Arch, p params, degradeK int, killAt, rtimeout int64, retries int, pool *exp.Pool, outPath, csvPath string) error {
	seq := degradeLinks(p.topo, p.template.Seed)
	if degradeK > len(seq) {
		return fmt.Errorf("-degrade %d exceeds the mesh's %d inter-router links", degradeK, len(seq))
	}
	rt := network.RetransmitConfig{Timeout: rtimeout, Retries: retries}
	if rt.Timeout <= 0 {
		rt.Timeout = int64(4*(p.topo.Width+p.topo.Height) + 64)
	}

	points := degradeK + 1 // fault counts 0..K per architecture
	total := len(archs) * points
	cells, err := exp.Map(context.Background(), pool, total,
		func(_ context.Context, i int) (dcell, error) {
			return runDegradeCell(archs[i/points], i%points, seq, killAt, rt, p), nil
		})
	if err != nil {
		return err
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "noxfault degradation sweep\n")
	fmt.Fprintf(&sb, "topo=%dx%d buffers=%d cycles=%d load=%.4f multi=%.2f drain=%d watchdog=%d seed=0x%X\n",
		p.topo.Width, p.topo.Height, p.bufferDepth, p.cycles, p.load, p.multi, p.drain, p.watchdog, p.template.Seed)
	fmt.Fprintf(&sb, "kill=cycle-%d retransmit: timeout=%d retries=%d\n", killAt, rt.Timeout, rt.Retries)
	var seqStr []string
	for _, l := range seq[:degradeK] {
		seqStr = append(seqStr, fmt.Sprintf("L%d-%d", int(l[0]), int(l[1])))
	}
	fmt.Fprintf(&sb, "kill sequence: %s\n", strings.Join(seqStr, " "))

	bad := 0
	for ai, arch := range archs {
		fmt.Fprintf(&sb, "arch %s:\n", arch)
		for f := 0; f < points; f++ {
			c := cells[ai*points+f]
			fmt.Fprintf(&sb, "  links=%d: injected=%d delivered=%d undeliverable=%d thpt=%.5f pkt/cycle lat=%.1f",
				c.failed, c.injected, c.delivered, c.undeliverable, c.thpt(), c.meanLat())
			if c.epochs > 0 {
				fmt.Fprintf(&sb, " epochs=%d@%d", c.epochs, c.lastEpoch)
			}
			if c.retransmits > 0 || c.exhausted > 0 {
				fmt.Fprintf(&sb, " rtx=%d/%d", c.retransmits, c.exhausted)
			}
			if c.dupes > 0 {
				fmt.Fprintf(&sb, " dups=%d", c.dupes)
			}
			if c.partitioned > 0 {
				fmt.Fprintf(&sb, " partitioned=%d", c.partitioned)
			}
			if c.ok {
				fmt.Fprintf(&sb, " ok\n")
			} else {
				bad++
				fmt.Fprintf(&sb, " UNDETECTED (%s)\n", c.why)
			}
		}
	}
	fmt.Fprintf(&sb, "overall: cells=%d ok=%d undetected=%d\n", total, total-bad, bad)
	if bad > 0 {
		fmt.Fprintf(&sb, "WARNING: unaccounted loss or violations under permanent faults\n")
	}

	report := sb.String()
	if outPath != "" {
		if err := os.WriteFile(outPath, []byte(report), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "noxfault: degradation report written to %s (%d cells)\n", outPath, total)
	} else {
		fmt.Fprint(stdout, report)
	}
	if csvPath != "" {
		var cb strings.Builder
		cb.WriteString("arch,failed_links,kill_cycle,injected,delivered,undeliverable,violations,retransmits,acked,ack_lost,exhausted,dup_suppressed,epochs,last_epoch,partitioned_pairs,mean_latency_cycles,delivered_per_cycle,end_cycle,status\n")
		for _, c := range cells {
			status := "ok"
			if !c.ok {
				status = "UNDETECTED"
			}
			fmt.Fprintf(&cb, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.3f,%.6f,%d,%s\n",
				c.arch, c.failed, killAt, c.injected, c.delivered, c.undeliverable, c.violations,
				c.retransmits, c.acked, c.ackLost, c.exhausted, c.dupes,
				c.epochs, c.lastEpoch, c.partitioned, c.meanLat(), c.thpt(), c.endCycle, status)
		}
		if err := os.WriteFile(csvPath, []byte(cb.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "noxfault: degradation CSV written to %s\n", csvPath)
	}
	return nil
}

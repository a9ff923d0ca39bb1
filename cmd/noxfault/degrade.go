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
	"strings"

	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/noc"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// meanLat returns a degrade cell's mean create-to-deliver latency in
// cycles (0 when nothing was delivered).
func (c cell) meanLat() float64 {
	if c.latN == 0 {
		return 0
	}
	return float64(c.latSum) / float64(c.latN)
}

// thpt returns delivered packets per cycle over the cell's full run.
func (c cell) thpt() float64 {
	if c.endCycle == 0 {
		return 0
	}
	return float64(c.delivered) / float64(c.endCycle)
}

// accounted classifies a degrade cell: ok when the run ends with zero
// violations and every injected packet either delivered or retired as
// undeliverable; anything else is an UNDETECTED accounting hole, with why.
func (c cell) accounted() (ok bool, why string) {
	switch {
	case c.panicked != "":
		return false, "panic: " + c.panicked
	case c.drainErr != "":
		return false, "wedged: " + c.drainErr
	case c.total > 0:
		return false, fmt.Sprintf("%d violations", c.total)
	case c.missing() != 0:
		return false, fmt.Sprintf("%d packets unaccounted", c.missing())
	}
	return true, ""
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

// degradeJob returns architecture arch's cell with the first f links of
// the kill sequence seq dead at killAt.
func degradeJob(arch router.Arch, f int, seq [][2]noc.NodeID, killAt int64, p params) job {
	spec := degradeSpec(seq, f, killAt, p.template.Seed)
	return job{
		arch: arch, idx: f, label: fmt.Sprintf("degrade-%s-links%d", arch, f), spec: spec,
		traffic: bursty(p.load, spec.Seed),
	}
}

// bursty is a degrade cell's traffic: per-core self-similar ON/OFF
// processes and destination streams, forked from the cell seed exactly like
// the harness does, so the packet sequence depends only on (seed, arch, f).
func bursty(load float64, seed uint64) func(cores int) source {
	return func(cores int) source {
		base := sim.NewRNG(seed ^ 0x42555253) // "BURS"
		procs := make([]traffic.Process, cores)
		dests := make([]*sim.RNG, cores)
		for i := range procs {
			procs[i] = traffic.NewSelfSimilar(load, base.Fork(uint64(i)))
			dests[i] = base.Fork(uint64(1000 + i))
		}
		return func(id int) *sim.RNG {
			if procs[id].Tick() {
				return dests[id]
			}
			return nil
		}
	}
}

// runDegradeMode runs the full sweep and writes the report (and CSV).
func runDegradeMode(stdout io.Writer, archs []router.Arch, p params, degradeK int, killAt int64, pool *exp.Pool, outPath, csvPath string) error {
	seq := degradeLinks(p.topo, p.template.Seed)
	if degradeK > len(seq) {
		return fmt.Errorf("-degrade %d exceeds the mesh's %d inter-router links", degradeK, len(seq))
	}
	// Every cell's spec is a prefix of the largest one's: validate that once,
	// here, rather than let fault.NewInjector panic on a worker.
	if err := degradeSpec(seq, degradeK, killAt, p.template.Seed).Validate(); err != nil {
		return err
	}

	points := degradeK + 1 // fault counts 0..K per architecture
	total := len(archs) * points
	cells, err := exp.Map(context.Background(), pool, total,
		func(_ context.Context, i int) (cell, error) {
			return run(degradeJob(archs[i/points], i%points, seq, killAt, p), p), nil
		})
	if err != nil {
		return err
	}
	logDumps(cells)

	rt := p.retransmit
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
				c.idx, c.injected, c.delivered, c.undeliverable, c.thpt(), c.meanLat())
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
			if ok, why := c.accounted(); ok {
				fmt.Fprintf(&sb, " ok\n")
			} else {
				bad++
				fmt.Fprintf(&sb, " UNDETECTED (%s)\n", why)
			}
		}
	}
	fmt.Fprintf(&sb, "overall: cells=%d ok=%d undetected=%d\n", total, total-bad, bad)
	if bad > 0 {
		fmt.Fprintf(&sb, "WARNING: unaccounted loss or violations under permanent faults\n")
	}
	if err := writeReport(stdout, sb.String(), outPath, "degradation report", fmt.Sprintf(" (%d cells)", total)); err != nil || csvPath == "" {
		return err
	}

	var cb strings.Builder
	cb.WriteString("arch,failed_links,kill_cycle,injected,delivered,undeliverable,violations,retransmits,acked,ack_lost,exhausted,dup_suppressed,epochs,last_epoch,partitioned_pairs,mean_latency_cycles,delivered_per_cycle,end_cycle,status\n")
	for _, c := range cells {
		status := "ok"
		if ok, _ := c.accounted(); !ok {
			status = "UNDETECTED"
		}
		fmt.Fprintf(&cb, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.3f,%.6f,%d,%s\n",
			c.arch, c.idx, killAt, c.injected, c.delivered, c.undeliverable, c.total,
			c.retransmits, c.acked, c.ackLost, c.exhausted, c.dupes,
			c.epochs, c.lastEpoch, c.partitioned, c.meanLat(), c.thpt(), c.endCycle, status)
	}
	return writeReport(stdout, cb.String(), csvPath, "degradation CSV", "")
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/network"
	"repro/internal/power"
	"repro/internal/probe"
	"repro/internal/router"
)

// defaultSeed is the seed the committed golden digests were taken at (the
// simulator's own default, so fig8-uniform at this seed is the sweep
// cmd/noxsweep runs).
const defaultSeed = 0xA11CE

// archKeys are the metric-name suffixes of router.Archs, in order.
var archKeys = []string{"nonspec", "specfast", "specacc", "nox"}

func archKey(a router.Arch) string { return archKeys[int(a)] }

// cell is one unit of simulated work: a sweep point, an application replay,
// a fault campaign, or one window of the 32x32 run.
type cell struct {
	ID   string
	Arch router.Arch
	// Cycles is the nominal simulated length: warm-up plus measurement for
	// a sweep point, the trace length for a replay, the stepped cycles for
	// the open drivers.
	Cycles int64
	// Window is the cell's datapath event counts.
	Window power.Counters
	// Headline is the simulated result the paper comparison reads: accepted
	// MB/s/node for a sweep point, energy-delay^2 for a replay.
	Headline float64
	// Digest fingerprints the cell's simulated statistics; it must repeat
	// exactly across repetitions, runs and simulator-speed changes.
	Digest string
	// Fail is the first line of the reason the cell failed, "" when it did
	// not.
	Fail string
	// Panic is the first line of a panic the cell recovered from. In a
	// fault campaign that is a detected outcome (as cmd/noxfault classifies
	// it), recorded but not a failure.
	Panic string

	// Fault-cell accounting, zero elsewhere.
	Epochs, Retransmits, Undeliverable int64
}

// digest fingerprints a cell's simulated statistics from their canonical
// rendering.
func digest(format string, args ...any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf(format, args...)))
	return hex.EncodeToString(sum[:8])
}

// workload is one benchmark workload. setup and rep take the traced run's
// span recorder, nil on untraced runs.
type workload interface {
	// setup derives the seed-dependent inputs and pays one-time costs. A
	// run calls it several times and reports the median; the last call's
	// state is the one the repetitions use.
	setup(tr *tracer) error
	// rep runs one repetition. Every repetition of a run does identical
	// simulated work, so its cells' digests must agree between repetitions.
	rep(tr *tracer) []cell
	// activeShare re-runs a slice of the workload with a kernel observer
	// attached and returns the mean fraction of components evaluated per
	// simulated cycle.
	activeShare() float64
	// paperGap returns the distance, in percentage points, between the
	// repetition's headline result and the paper's, or 0 when the
	// configuration has no paper reference.
	paperGap(cells []cell) float64
	// autoShards is the shard count the library default resolves to on
	// this workload's network.
	autoShards() int
}

// workloadNames lists the workloads in the order -aa runs them; the names
// are the contract with BENCHMARK.json.
var workloadNames = []string{"fig8-uniform", "lowload-uniform", "fig10-apps", "fault-degrade", "mesh32-dense"}

func newWorkload(name string, seed uint64, tiny bool) (workload, error) {
	switch name {
	case "fig8-uniform":
		return newFig8(seed, tiny), nil
	case "lowload-uniform":
		return newLowLoad(seed, tiny), nil
	case "fig10-apps":
		return newApps(seed, tiny), nil
	case "fault-degrade":
		return newFaults(seed, tiny), nil
	case "mesh32-dense":
		return newMesh(seed, tiny), nil
	}
	return nil, fmt.Errorf("unknown workload %q (one of %s)", name, strings.Join(workloadNames, ", "))
}

// guard runs fn and returns the first line of the panic it recovered from,
// "" when fn returned normally.
func guard(fn func()) (panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = "panic: " + firstLine(fmt.Sprint(r))
		}
	}()
	fn()
	return ""
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// activity accumulates the kernel's active-component count over the cycles
// of an activity pass, fed by a kernel observer or by a sampling probe.
type activity struct{ active, cycles float64 }

func (a *activity) observe(_ int64, n int) { a.active += float64(n); a.cycles++ }

func (a *activity) addSamples(p *probe.Probe) {
	for _, s := range p.Samples() {
		a.observe(s.Cycle, s.ActiveComponents)
	}
}

// share is the mean fraction of the network's components evaluated per
// cycle.
func (a *activity) share(components int) float64 {
	if a.cycles == 0 {
		return 0
	}
	return a.active / a.cycles / float64(components)
}

// samplingProbe is the probe the harness workloads' activity passes attach:
// a minimal event ring, the active-component gauge sampled every 16 cycles.
func samplingProbe() *probe.Probe {
	return probe.New(probe.Config{RingEvents: 1024, SampleEvery: 16})
}

// componentCount returns how many kernel components a network of the given
// configuration registers (all are active right after construction).
func componentCount(cfg network.Config) int {
	net := network.New(cfg)
	defer net.Close()
	return net.Kernel().ActiveComponents()
}

// sumCounters adds up the cells' event counts.
func sumCounters(cells []cell) power.Counters {
	var c power.Counters
	for i := range cells {
		c.Add(cells[i].Window)
	}
	return c
}

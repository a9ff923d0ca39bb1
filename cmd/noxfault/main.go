// Command noxfault runs deterministic fault-injection campaigns against the
// simulator's runtime invariant layer: each campaign drives random traffic
// through a mesh while injecting channel-level faults (bit-flips, drops,
// stalls, credit loss/duplication) from a seeded, replayable spec, then
// classifies the outcome — did the delivery oracle, protocol assertions, or
// deadlock watchdog detect the faults, were they masked, or (the regression
// signal) did traffic go missing with no violation recorded?
//
// Campaigns are pure functions of their seed: the report is byte-identical
// across runs, across -parallel settings, and across -shards settings.
//
// Usage:
//
//	noxfault -campaigns 8 -bitflip 0.001 -drop 0.0005
//	noxfault -arch nox -campaigns 4 -spec campaign.json -out report.txt
//	noxfault -width 4 -height 4 -stall 0.002 -creditloss 0.001 -shards 4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/check"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/noc"
	"repro/internal/physical"
	"repro/internal/probe"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
)

// outcome classifies one campaign.
type outcome int

const (
	// outClean: no fault fired inside the campaign window.
	outClean outcome = iota
	// outMasked: faults fired but every packet was delivered bit-exactly
	// and no invariant tripped — the network absorbed them.
	outMasked
	// outDetected: the invariant layer caught the faults (violations, a
	// watchdog trip, or a recovered panic).
	outDetected
	// outDegraded: permanent faults cost packets, but every loss is
	// accounted — retired as undeliverable by the partition analysis or the
	// retry budget — with zero violations: graceful degradation.
	outDegraded
	// outUndetected: traffic went missing with no violation recorded — a
	// checker regression. A healthy build reports zero of these.
	outUndetected

	numOutcomes
)

func (o outcome) String() string {
	switch o {
	case outClean:
		return "clean"
	case outMasked:
		return "masked"
	case outDetected:
		return "detected"
	case outDegraded:
		return "degraded"
	default:
		return "UNDETECTED"
	}
}

// source is one cycle of a cell's traffic, asked node by node in order: it
// returns the stream that draws node id's packet this cycle (destination,
// then length), or nil when the node injects none.
type source func(id int) *sim.RNG

// uniform is the traffic of campaigns and warm phases: one stream draws
// every node's arrival, destination and length in node order, so the packet
// sequence depends on the seed alone and no per-node process reproduces it.
func uniform(load float64, seed uint64) func(cores int) source {
	return func(int) source {
		rng := sim.NewRNG(seed)
		return func(int) *sim.RNG {
			if rng.Float64() < load {
				return rng
			}
			return nil
		}
	}
}

// job is one cell to run: an architecture, the cell's index (campaign
// number, or failed-link count), its fault spec and a constructor of its
// traffic, so a replay can re-run it from the start.
type job struct {
	arch    router.Arch
	idx     int
	label   string // flight-dump label, deterministic in the job
	spec    fault.Spec
	traffic func(cores int) source
}

// cell is one job's result: the facts harvested after its run, from which
// each report classifies it.
type cell struct {
	job
	panicked string // headline of a recovered panic
	drainErr string // headline of a failed drain
	clean    bool   // no fault fired and no route ever changed

	faults    [fault.NumKinds]int64
	injected  int64
	delivered int64
	counts    [check.NumKinds]int64
	total     int64
	// Permanent-fault and reliability counters (zero when neither hard
	// faults nor retransmission are armed).
	undeliverable int64
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

	// dumped is the recorder whose flight dump the cell wrote, dumpErr its
	// flush error: logDumps reports them in cell order.
	dumped  *telemetry.Recorder
	dumpErr error
}

// missing is the number of injected packets neither delivered nor retired
// as undeliverable.
func (c cell) missing() int64 { return c.injected - c.delivered - c.undeliverable }

// outcome classifies a campaign cell, with the detection channel or the
// loss accounting as its reason.
func (c cell) outcome() (outcome, string) {
	switch {
	case c.panicked != "":
		return outDetected, "panic: " + c.panicked
	case c.drainErr != "":
		return outDetected, "watchdog: " + c.drainErr
	case c.total > 0:
		return outDetected, "violations"
	case c.clean:
		return outClean, ""
	case c.delivered == c.injected:
		return outMasked, ""
	case c.undeliverable > 0 && c.missing() == 0:
		return outDegraded, fmt.Sprintf("%d undeliverable, every loss accounted", c.undeliverable)
	default:
		return outUndetected, fmt.Sprintf("%d packets missing, zero violations", c.missing())
	}
}

type params struct {
	topo        noc.Topology
	bufferDepth int
	shards      int
	cycles      int64
	load        float64
	multi       float64
	drain       int64
	watchdog    int64
	template    fault.Spec
	// retransmit, when non-nil, arms end-to-end NI retransmission in every
	// cell network (see -rtimeout / -retries).
	retransmit *network.RetransmitConfig
	// newRecorder builds one flight recorder per cell (nil or a factory
	// returning nil disarms recording). Labels are deterministic in the job,
	// so the serial and sharded paths write the same dump files; the report
	// text is unaffected either way.
	newRecorder func(label string) *telemetry.Recorder
	// warm holds one shared warm image per architecture (-warmstart): a
	// fault-free network driven to steady state once, restored into every
	// campaign so faults hit loaded queues instead of an empty mesh. The
	// image is computed before the campaigns fan out, so the serial,
	// parallel, and sharded paths restore identical state and the report
	// stays byte-identical across them.
	warm map[router.Arch][]byte
}

// validate refuses, once and before any cell runs, the network
// configuration every cell would build: a build error is the command
// line's, and inside a cell run's recover would report it as a detected
// fault.
func (p params) validate() error {
	return network.Config{Topo: p.topo, BufferDepth: p.bufferDepth, Shards: p.shards, Retransmit: p.retransmit}.Validate()
}

// warmFault drives one architecture's fault-free warm phase: uniform
// traffic at the campaign load for cycles cycles, checker armed, no
// injector, and returns the network snapshot every campaign of that
// architecture resumes from. The traffic stream has its own seed, shared by
// all campaigns of the architecture.
func warmFault(arch router.Arch, p params, cycles int64, seed uint64) ([]byte, error) {
	net, err := network.Build(network.Config{
		Topo: p.topo, Arch: arch, BufferDepth: p.bufferDepth,
		Shards: p.shards, Check: check.New(check.All()), Retransmit: p.retransmit,
	})
	if err != nil {
		return nil, err
	}
	defer net.Close()
	src := uniform(p.load, seed)(net.Cores())
	for cyc := int64(0); cyc < cycles; cyc++ {
		inject(net, src, p.multi)
		net.Step()
	}
	return snapshot.Encode(net)
}

// campaign returns campaign idx of architecture arch. Its fault seed steps
// from the template's by a golden-ratio stride, so campaigns are
// decorrelated but replayable from (template seed, idx) alone.
func campaign(arch router.Arch, idx int, p params) job {
	spec := p.template
	spec.Seed += uint64(idx) * 0x9E3779B97F4A7C15
	return job{
		arch: arch, idx: idx, label: fmt.Sprintf("fault-%s-c%d", arch, idx), spec: spec,
		traffic: uniform(p.load, spec.Seed^0x54524146), // "TRAF"
	}
}

// run executes one cell: build, warm restore, drive, drain, harvest, and
// the flight dump when its recorder tripped. Fault-reachable panics are
// harvested as a fact for the report to classify — with the checker armed
// none should remain, so a recovered panic is itself worth surfacing.
func run(j job, p params) (c cell) {
	c.job = j
	ck := check.New(check.All())
	inj := fault.NewInjector(j.spec)
	var net *network.Network
	defer func() {
		if r := recover(); r != nil {
			c.panicked = firstLine(fmt.Sprint(r))
		}
		c.injected, c.delivered = ck.Injected(), ck.Delivered()
		c.counts, c.total = ck.Counts(), ck.Total()
		c.faults = inj.Totals()
		if net == nil {
			return
		}
		c.undeliverable = net.Undeliverable()
		c.retransmits, c.acked, c.ackLost, c.exhausted = net.RetransmitStats()
		c.dupes = net.DupSuppressed()
		c.epochs, c.lastEpoch = net.Epochs(), net.LastEpochCycle()
		c.partitioned = net.PartitionedPairs()
		c.clean = inj.Total() == 0 && c.epochs == 0 && net.CurrentFaults().Empty()
		c.endCycle = net.Cycle()
		net.Close()
	}()

	var rec *telemetry.Recorder
	if p.newRecorder != nil {
		rec = p.newRecorder(j.label)
		rec.SetPeriodNs(physical.ClockPeriodNs(j.arch))
		rec.BindChecker(ck)
	}
	net = buildCell(j, p, ck, inj, rec, nil)
	net.OnDeliver = func(pkt *noc.Packet, cycle int64) {
		c.latSum += cycle - pkt.CreateCycle
		c.latN++
	}
	driveCell(net, j, p, rec)
	if err := drainCell(net, ck, p, rec); err != nil {
		c.drainErr = firstLine(err.Error())
	}
	// The dump goes to the flight directory and stderr only — the report
	// must stay byte-identical with recording on or off.
	if rec.Triggered() {
		replay := func(rr *telemetry.Recorder) { replayCell(j, p, rr) }
		path, err := rec.Flush(replay, func(w io.Writer) {
			net.WriteDiagnostic(w)
			ck.WriteReport(w)
		})
		if c.dumpErr = err; path != "" && err == nil {
			c.dumped = rec
		}
	}
	return c
}

// logDumps prints each cell's flight-dump notice or flush error to stderr in
// cell order, whichever pool worker finished first.
func logDumps(cells []cell) {
	for _, c := range cells {
		if c.dumpErr != nil {
			fmt.Fprintln(os.Stderr, "noxfault:", c.dumpErr)
		}
		c.dumped.LogDump()
	}
}

// buildCell builds job j's network, probed by pr (nil for none), with rec's
// reconfiguration trigger armed unless the spec schedules a death: there
// the kill is the experiment, not a failure.
func buildCell(j job, p params, ck *check.Checker, inj *fault.Injector, rec *telemetry.Recorder, pr *probe.Probe) *network.Network {
	net, err := network.Build(network.Config{
		Topo: p.topo, Arch: j.arch, BufferDepth: p.bufferDepth,
		Shards: p.shards, Check: ck, Fault: inj, Probe: pr,
		Retransmit: p.retransmit,
	})
	if err != nil {
		panic(err.Error())
	}
	if !j.spec.HasHardFaults() {
		net.OnReconfigure = func(cycle int64, fs routing.FaultSet) {
			rec.Trigger(cycle, "reconfiguration: "+fs.String())
		}
	}
	return net
}

// driveCell runs job j's traffic phase on its freshly built network, from
// the architecture's warm image when there is one. Injection runs on the
// stepping goroutine, so the packet sequence is shard-invariant. A replay
// stops as soon as its recorder rec is Done.
func driveCell(net *network.Network, j job, p params, rec *telemetry.Recorder) {
	if img := p.warm[j.arch]; img != nil {
		// Saved checker-armed from an identically configured network, so the
		// cell's checker inherits the warm phase's delivery ledger.
		if err := snapshot.DecodeInto(img, net); err != nil {
			panic("warm restore: " + err.Error())
		}
	}
	src := j.traffic(net.Cores())
	for cyc := int64(0); cyc < p.cycles && !rec.Done(net.Cycle()); cyc++ {
		inject(net, src, p.multi)
		net.Step()
	}
}

// inject injects one cycle of src's traffic: each drawing node picks a
// destination other than itself, and a packet is 4 flits with probability
// multi.
func inject(net *network.Network, src source, multi float64) {
	cores := net.Cores()
	for id := 0; id < cores; id++ {
		rng := src(id)
		if rng == nil {
			continue
		}
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

// replayCell re-runs job j from the start under the flight recorder's
// replay recorder rr — serially, with a fresh checker and injector wired to
// rr the way the cell's were to its recorder, and none of the cell's side
// effects — until rr is Done.
func replayCell(j job, p params, rr *telemetry.Recorder) {
	p.shards = 1
	ck := check.New(check.All())
	rr.BindChecker(ck)
	net := buildCell(j, p, ck, fault.NewInjector(j.spec), rr, rr.Probe())
	defer net.Close()
	driveCell(net, j, p, rr)
	if !rr.Done(net.Cycle()) {
		_ = drainCell(net, ck, p, rr) // the replay's trip is in rr
	}
}

// drainCell drains a cell's network once its traffic phase is over and
// sweeps the invariants, latching rec if the drain fails, or if it succeeds
// with zero violations while packets are missing from the checker's ledger:
// a loss the invariant layer did not see.
func drainCell(net *network.Network, ck *check.Checker, p params, rec *telemetry.Recorder) error {
	err := net.DrainChecked(p.drain, p.watchdog)
	net.CheckInvariants()
	if err != nil {
		rec.Trigger(net.Cycle(), "drain: "+firstLine(err.Error()))
	} else if n := ck.Injected() - ck.Delivered() - net.Undeliverable(); n != 0 && ck.Total() == 0 {
		rec.Trigger(net.Cycle(), fmt.Sprintf("undetected loss: %d packets missing", n))
	}
	return err
}

// firstLine trims a multi-line message (watchdog errors embed the full
// diagnostic dump) to its headline.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// kindList renders nonzero per-kind counts as a compact bracket list.
func kindList[T fmt.Stringer](counts []int64, kind func(int) T) string {
	var parts []string
	for i, n := range counts {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", kind(i), n))
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return " [" + strings.Join(parts, " ") + "]"
}

// writeReport writes report to outPath and says so on stdout, with note
// appended, or writes it to stdout when outPath is empty.
func writeReport(stdout io.Writer, report, outPath, what, note string) error {
	if outPath == "" {
		_, err := io.WriteString(stdout, report)
		return err
	}
	if err := os.WriteFile(outPath, []byte(report), 0o644); err != nil {
		return err
	}
	_, err := fmt.Fprintf(stdout, "noxfault: %s written to %s%s\n", what, outPath, note)
	return err
}

// runCampaignMode runs campaigns seeded campaigns per architecture, from
// warm images of warmN fault-free cycles when warmN > 0, and writes the
// campaign report.
func runCampaignMode(stdout io.Writer, archs []router.Arch, p params, campaigns int, warmN int64, pool *exp.Pool, outPath string) error {
	if warmN > 0 {
		p.warm = make(map[router.Arch][]byte, len(archs))
		for _, a := range archs {
			img, err := warmFault(a, p, warmN, p.template.Seed^0x5741524D) // "WARM"
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", a, err)
			}
			p.warm[a] = img
		}
	}

	// Fan the (arch, campaign) grid across the pool; cells are independent
	// and individually seeded, so results are position-stable.
	cells, err := exp.Map(context.Background(), pool, len(archs)*campaigns,
		func(_ context.Context, i int) (cell, error) {
			return run(campaign(archs[i/campaigns], i%campaigns, p), p), nil
		})
	if err != nil {
		return err
	}
	logDumps(cells)

	var sb strings.Builder
	fmt.Fprintf(&sb, "noxfault campaign report\n")
	fmt.Fprintf(&sb, "topo=%dx%d buffers=%d campaigns=%d cycles=%d load=%.4f multi=%.2f drain=%d watchdog=%d\n",
		p.topo.Width, p.topo.Height, p.bufferDepth, campaigns, p.cycles, p.load, p.multi, p.drain, p.watchdog)
	if warmN > 0 {
		fmt.Fprintf(&sb, "warmstart: %d fault-free cycles shared per architecture\n", warmN)
	}
	fmt.Fprintf(&sb, "spec template: %s\n", p.template)

	var overall [numOutcomes]int
	for ai, arch := range archs {
		fmt.Fprintf(&sb, "arch %s:\n", arch)
		var tally [numOutcomes]int
		var faults int64
		for ci := 0; ci < campaigns; ci++ {
			c := cells[ai*campaigns+ci]
			out, why := c.outcome()
			tally[out]++
			overall[out]++
			var fsum int64
			for _, n := range c.faults {
				fsum += n
			}
			faults += fsum
			fmt.Fprintf(&sb, "  campaign %d: seed=0x%X faults=%d%s outcome=%s injected=%d delivered=%d violations=%d%s",
				ci, c.spec.Seed, fsum,
				kindList(c.faults[:], func(i int) fault.Kind { return fault.Kind(i) }),
				out, c.injected, c.delivered, c.total,
				kindList(c.counts[:], func(i int) check.Kind { return check.Kind(i) }))
			if c.undeliverable > 0 {
				fmt.Fprintf(&sb, " undeliverable=%d", c.undeliverable)
			}
			if c.epochs > 0 {
				fmt.Fprintf(&sb, " epochs=%d@%d", c.epochs, c.lastEpoch)
			}
			if c.retransmits > 0 || c.exhausted > 0 {
				fmt.Fprintf(&sb, " rtx=%d/%d", c.retransmits, c.exhausted)
			}
			if why != "" && why != "violations" {
				fmt.Fprintf(&sb, " (%s)", why)
			}
			fmt.Fprintln(&sb)
		}
		fmt.Fprintf(&sb, "  summary: clean=%d masked=%d detected=%d degraded=%d undetected=%d faults=%d\n",
			tally[outClean], tally[outMasked], tally[outDetected], tally[outDegraded], tally[outUndetected], faults)
	}
	fmt.Fprintf(&sb, "overall: campaigns=%d clean=%d masked=%d detected=%d degraded=%d undetected=%d\n",
		len(archs)*campaigns, overall[outClean], overall[outMasked], overall[outDetected], overall[outDegraded], overall[outUndetected])
	if overall[outUndetected] > 0 {
		fmt.Fprintf(&sb, "WARNING: undetected loss — the invariant layer missed faults it should catch\n")
	}
	return writeReport(stdout, sb.String(), outPath, "report", fmt.Sprintf(" (%d campaigns)", len(archs)*campaigns))
}

func main() {
	cli := telemetry.NewCLI("noxfault", telemetry.LiveFlags)
	seed, shards := cli.Seed(0xF001), cli.Shards(1)
	cli.Parallel()
	var (
		archName  = flag.String("arch", "all", "router architecture: all|nonspec|specfast|specaccurate|nox")
		width     = flag.Int("width", 4, "mesh width")
		height    = flag.Int("height", 4, "mesh height")
		buffers   = flag.Int("buffers", 4, "input buffer depth (flits)")
		campaigns = flag.Int("campaigns", 8, "seeded campaigns per architecture")
		cycles    = flag.Int64("cycles", 2000, "traffic-injection cycles per campaign")
		load      = flag.Float64("load", 0.02, "per-node per-cycle injection probability")
		multi     = flag.Float64("multi", 0.25, "probability an injected packet is 4 flits")
		drain     = flag.Int64("drain", 20000, "drain cycle budget after injection stops")
		watchdog  = flag.Int64("watchdog", 4000, "livelock watchdog window (cycles without a delivery)")
		out       = flag.String("out", "", "write the report to this file instead of stdout")
		specPath  = flag.String("spec", "", "JSON fault-spec file (flag rates ignored when set; its seed, if nonzero, overrides -seed)")
		warmN     = flag.Int64("warmstart", 0, "warm each architecture's network fault-free for this many cycles once, then start every campaign from the shared warm state (0 = cold campaigns)")

		degradeK = flag.Int("degrade", 0, "degradation-sweep mode: fail 0..N links (a seeded nested sequence) and report sustained throughput, latency, and loss accounting per fault count; transient-rate flags are ignored")
		killAt   = flag.Int64("kill", 0, "degradation mode: cycle the failed links die (0 = dead from the start; >0 = mid-run kill with flush and reconfiguration)")
		csvOut   = flag.String("csv", "", "degradation mode: also write the sweep as CSV to this file")
		rtimeout = flag.Int64("rtimeout", 0, "end-to-end retransmission base timeout in cycles (0 = disarmed; degradation mode defaults to 4*(w+h)+64)")
		retries  = flag.Int("retries", 4, "retransmission retry budget per packet (with -rtimeout)")

		bitflip    = flag.Float64("bitflip", 0.001, "per-flit-traversal bit-flip probability")
		dropRate   = flag.Float64("drop", 0, "per-flit-traversal drop probability")
		stall      = flag.Float64("stall", 0, "per-(site,cycle) stall-window start probability")
		stallCycle = flag.Int64("stallcycles", 8, "stall window duration in cycles")
		creditLoss = flag.Float64("creditloss", 0, "per-credit loss probability")
		creditDup  = flag.Float64("creditdup", 0, "per-credit duplication probability")
		startCycle = flag.Int64("start", 0, "first active fault cycle")
		endCycle   = flag.Int64("end", 0, "end of the active fault window (0 = unbounded)")
	)
	sess, pool, stop := cli.Start()
	defer stop()

	archs := router.Archs
	if *archName != "all" {
		a, err := router.ArchByName(*archName)
		if err != nil {
			cli.Fail(err)
		}
		archs = []router.Arch{a}
	}

	template := fault.Spec{
		Seed: *seed, Start: *startCycle, End: *endCycle,
		BitFlip: *bitflip, Drop: *dropRate,
		Stall: *stall, StallCycles: *stallCycle,
		CreditLoss: *creditLoss, CreditDup: *creditDup,
	}
	if *specPath != "" {
		data, err := os.ReadFile(*specPath)
		if err != nil {
			cli.Fail(err)
		}
		template, err = fault.ParseSpec(data)
		if err != nil {
			cli.Fail(err)
		}
		if template.Seed == 0 {
			template.Seed = *seed
		}
	}
	if err := template.Validate(); err != nil {
		cli.Fail(err)
	}

	p := params{
		topo:        noc.Topology{Width: *width, Height: *height},
		bufferDepth: *buffers,
		shards:      *shards,
		cycles:      *cycles,
		load:        *load,
		multi:       *multi,
		drain:       *drain,
		watchdog:    *watchdog,
		template:    template,
		newRecorder: sess.NewRecorder,
	}
	if *rtimeout > 0 {
		p.retransmit = &network.RetransmitConfig{Timeout: *rtimeout, Retries: *retries}
	} else if *degradeK > 0 {
		p.retransmit = &network.RetransmitConfig{Timeout: int64(4*(*width+*height) + 64), Retries: *retries}
	}
	switch {
	case p.topo.Nodes() < 2:
		cli.Fail(fmt.Errorf("-width %d -height %d: uniform traffic needs at least 2 nodes", *width, *height))
	case *campaigns <= 0:
		cli.Fail(errors.New("-campaigns must be positive"))
	case *cycles < 1:
		cli.Fail(fmt.Errorf("-cycles %d: must be at least 1", *cycles))
	case !(*load >= 0 && *load <= 1): // NaN fails both
		cli.Fail(fmt.Errorf("-load %v: a probability, must be in [0, 1]", *load))
	case *degradeK > 0 && !(*load > 0 && *load < 1):
		cli.Fail(fmt.Errorf("-load %v: a bursty source's rate, must be in (0, 1) with -degrade", *load))
	case !(*multi >= 0 && *multi <= 1):
		cli.Fail(fmt.Errorf("-multi %v: a probability, must be in [0, 1]", *multi))
	case *drain < 0 || *watchdog < 0 || *warmN < 0:
		cli.Fail(fmt.Errorf("-drain %d, -watchdog %d, -warmstart %d: must be at least 0 (0 takes the default)", *drain, *watchdog, *warmN))
	case *rtimeout < 0:
		cli.Fail(fmt.Errorf("-rtimeout %d: must be at least 0 (0 disarms)", *rtimeout))
	case *degradeK < 0:
		cli.Fail(fmt.Errorf("-degrade %d: must be at least 0", *degradeK))
	case *degradeK == 0 && (*csvOut != "" || *killAt != 0):
		cli.Fail(errors.New("-csv and -kill need -degrade"))
	case *warmN > 0 && (*degradeK > 0 || template.HasHardFaults()):
		cli.Fail(errors.New("-warmstart: a fault-free image restores only into a network without dead links, so it cannot start -degrade cells or a spec with dead links"))
	}
	if err := p.validate(); err != nil {
		cli.Fail(err)
	}

	var err error
	if *degradeK > 0 {
		// A separate experiment shape (fault-count sweep of permanent link
		// kills under bursty traffic) with its own report.
		err = runDegradeMode(os.Stdout, archs, p, *degradeK, *killAt, pool, *out, *csvOut)
	} else {
		err = runCampaignMode(os.Stdout, archs, p, *campaigns, *warmN, pool, *out)
	}
	if err != nil {
		cli.Fail(err)
	}
}

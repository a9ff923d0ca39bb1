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
	"path/filepath"
	"strings"

	"repro/internal/check"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/noc"
	"repro/internal/physical"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/snapshot/codec"
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

// cell is one (architecture, campaign) result.
type cell struct {
	arch      router.Arch
	idx       int
	spec      fault.Spec
	out       outcome
	why       string // detection channel or wedge headline
	faults    [fault.NumKinds]int64
	impacted  int
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
	escalated     int64
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
	// campaign network (see -rtimeout / -retries).
	retransmit *network.RetransmitConfig
	// newRecorder builds one flight recorder per campaign cell (nil or a
	// factory returning nil disarms recording). Labels are deterministic in
	// (arch, campaign), so the serial and sharded paths write the same dump
	// files; the report text is unaffected either way.
	newRecorder func(label string) *telemetry.Recorder
	// warm holds one shared warm image per architecture (-warmstart): a
	// fault-free network driven to steady state once, restored into every
	// campaign so faults hit loaded queues instead of an empty mesh. The
	// image is computed before the campaigns fan out, so the serial,
	// parallel, and sharded paths restore identical state and the report
	// stays byte-identical across them.
	warm map[router.Arch][]byte
	// ckptDir, when set (-checkpoint), saves a full network snapshot of
	// every detected or undetected campaign's final state for post-mortem
	// inspection (noxfault -restore <file>).
	ckptDir string
}

// validate refuses, once and before any cell runs, the network
// configuration every cell would build with retransmission rt: a build error
// is the command line's, and inside a cell run's recover would report it as
// a detected fault.
func (p params) validate(rt *network.RetransmitConfig) error {
	return network.Config{Topo: p.topo, BufferDepth: p.bufferDepth, Shards: p.shards, Retransmit: rt}.Validate()
}

// restoreWarm rewinds a freshly built campaign network to its
// architecture's shared warm image (a no-op without -warmstart). The warm
// image was saved checker-armed from an identically shaped network, so the
// cell's own checker inherits the warm phase's delivery ledger.
func restoreWarm(net *network.Network, arch router.Arch, p params) {
	if img := p.warm[arch]; img != nil {
		if err := snapshot.DecodeInto(img, net); err != nil {
			panic("warm restore: " + err.Error())
		}
	}
}

// warmFault drives one architecture's fault-free warm phase: uniform
// traffic at the campaign load for cycles cycles, checker armed, no
// injector, and returns the network snapshot every campaign of that
// architecture resumes from. The traffic stream has its own seed, shared by
// all campaigns of the architecture.
func warmFault(arch router.Arch, p params, cycles int64, seed uint64) ([]byte, error) {
	ck := check.New(check.All())
	net, err := network.Build(network.Config{
		Topo: p.topo, Arch: arch, BufferDepth: p.bufferDepth,
		Shards: p.shards, Check: ck,
	})
	if err != nil {
		return nil, err
	}
	defer net.Close()
	rng := sim.NewRNG(seed)
	cores := net.Cores()
	for cyc := int64(0); cyc < cycles; cyc++ {
		for id := 0; id < cores; id++ {
			if rng.Float64() >= p.load {
				continue
			}
			dst := rng.Intn(cores - 1)
			if dst >= id {
				dst++
			}
			length := 1
			if p.multi > 0 && rng.Float64() < p.multi {
				length = 4
			}
			net.Inject(noc.NodeID(id), noc.NodeID(dst), length, 0)
		}
		net.Step()
	}
	return snapshot.Encode(net)
}

// cellRecorder arms cell c's flight recorder: probe ring sized for the
// architecture's clock, checker violations latching the dump trigger.
func cellRecorder(c *cell, ck *check.Checker, p params) *telemetry.Recorder {
	if p.newRecorder == nil {
		return nil
	}
	rec := p.newRecorder(fmt.Sprintf("fault-%s-c%d", c.arch, c.idx))
	rec.SetPeriodNs(physical.ClockPeriodNs(c.arch))
	rec.BindChecker(ck)
	return rec
}

// campaignSeed derives campaign i's fault seed from the base with a
// golden-ratio stride, so campaigns are decorrelated but replayable from
// (base, i) alone.
func campaignSeed(base uint64, i int) uint64 {
	return base + uint64(i)*0x9E3779B97F4A7C15
}

// run executes one campaign cell. Fault-reachable panics are converted to a
// detected outcome by the recover — with the checker armed none should
// remain, so a recovered panic is itself worth surfacing in the report.
func run(arch router.Arch, idx int, p params) (c cell) {
	c.arch, c.idx = arch, idx
	c.spec = p.template
	c.spec.Seed = campaignSeed(p.template.Seed, idx)

	ck := check.New(check.All())
	inj := fault.NewInjector(c.spec)
	defer func() {
		c.injected, c.delivered = ck.Injected(), ck.Delivered()
		c.counts, c.total = ck.Counts(), ck.Total()
		c.faults, c.impacted = inj.Totals(), inj.ImpactedCount()
		if r := recover(); r != nil {
			c.out = outDetected
			c.why = "panic: " + firstLine(fmt.Sprint(r))
		}
	}()

	rec := cellRecorder(&c, ck, p)
	net, err := network.Build(network.Config{
		Topo: p.topo, Arch: arch, BufferDepth: p.bufferDepth,
		Shards: p.shards, Check: ck, Fault: inj, Probe: rec.Probe(),
		Retransmit: p.retransmit,
	})
	if err != nil {
		panic(err.Error())
	}
	defer net.Close()
	wireReconfig(net, rec)
	restoreWarm(net, arch, p)

	// Uniform-random traffic from the campaign's own stream; injection runs
	// on the stepping goroutine, so the packet sequence is shard-invariant.
	rng := sim.NewRNG(c.spec.Seed ^ 0x54524146) // "TRAF"
	cores := net.Cores()
	for cyc := int64(0); cyc < p.cycles; cyc++ {
		for id := 0; id < cores; id++ {
			if rng.Float64() >= p.load {
				continue
			}
			dst := rng.Intn(cores - 1)
			if dst >= id {
				dst++
			}
			length := 1
			if p.multi > 0 && rng.Float64() < p.multi {
				length = 4
			}
			net.Inject(noc.NodeID(id), noc.NodeID(dst), length, 0)
		}
		net.Step()
	}
	finishCell(&c, net, ck, inj, rec, p)
	return c
}

// finishCell drains one campaign's network and classifies the outcome —
// the post-traffic half of run. The recover mirrors run's: a
// fault-reachable panic during the drain is a detected outcome.
func finishCell(c *cell, net *network.Network, ck *check.Checker, inj *fault.Injector, rec *telemetry.Recorder, p params) {
	defer func() {
		c.injected, c.delivered = ck.Injected(), ck.Delivered()
		c.counts, c.total = ck.Counts(), ck.Total()
		c.faults, c.impacted = inj.Totals(), inj.ImpactedCount()
		c.undeliverable = net.Undeliverable()
		c.retransmits, c.acked, c.ackLost, c.exhausted = net.RetransmitStats()
		c.dupes = net.DupSuppressed()
		c.epochs, c.lastEpoch = net.Epochs(), net.LastEpochCycle()
		c.partitioned = net.PartitionedPairs()
		c.escalated = inj.EscalatedLinks()
		if r := recover(); r != nil {
			c.out = outDetected
			c.why = "panic: " + firstLine(fmt.Sprint(r))
		}
	}()
	drainErr := net.DrainChecked(p.drain, p.watchdog)
	net.CheckInvariants()
	if drainErr != nil {
		rec.Trigger(net.Cycle(), "drain: "+firstLine(drainErr.Error()))
	}
	// The dump goes to the flight directory and stderr only — the campaign
	// report must stay byte-identical with recording on or off.
	if rec.Triggered() {
		if _, err := rec.Flush(func(w io.Writer) {
			net.WriteDiagnostic(w)
			ck.WriteReport(w)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "noxfault:", err)
		}
	}

	switch {
	case drainErr != nil:
		c.out = outDetected
		c.why = "watchdog: " + firstLine(drainErr.Error())
	case ck.Total() > 0:
		c.out = outDetected
		c.why = "violations"
	case inj.Total() == 0 && net.Epochs() == 0 && net.CurrentFaults().Empty():
		c.out = outClean
	case ck.Delivered() == ck.Injected():
		c.out = outMasked
	case net.Undeliverable() > 0 && ck.Delivered()+net.Undeliverable() == ck.Injected():
		c.out = outDegraded
		c.why = fmt.Sprintf("%d undeliverable, every loss accounted", net.Undeliverable())
	default:
		c.out = outUndetected
		c.why = fmt.Sprintf("%d packets missing, zero violations", ck.Injected()-ck.Delivered()-net.Undeliverable())
	}
	// Crash-state checkpoint (-checkpoint): persist the final network state
	// of every campaign the fault actually damaged, for post-mortem
	// inspection with -restore. Side effect only — the report is unaffected.
	if p.ckptDir != "" && (c.out == outDetected || c.out == outUndetected) {
		path := filepath.Join(p.ckptDir, fmt.Sprintf("fault-%s-c%d.nox", c.arch, c.idx))
		img, err := snapshot.Encode(net)
		if err == nil {
			err = os.WriteFile(path, img, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "noxfault: checkpoint:", err)
		}
	}
}

// wireReconfig arms the flight recorder's reconfiguration trigger: the
// first fault-driven route rebuild latches the recorder, so the dump window
// brackets the epoch (first-trigger-wins; a later checker trip or wedge
// would latch it anyway). Nil-safe like every Recorder method.
func wireReconfig(net *network.Network, rec *telemetry.Recorder) {
	net.OnReconfigure = func(cycle int64, fs routing.FaultSet) {
		rec.Trigger(cycle, "reconfiguration: "+fs.String())
	}
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
		ckptDir   = flag.String("checkpoint", "", "save a full network snapshot of every detected/undetected campaign's final state into this directory (fault-<arch>-c<N>.nox)")
		restoreIn = flag.String("restore", "", "post-mortem mode: load a campaign snapshot, print its diagnostic dump and invariant report, and exit")

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

	// Post-mortem mode: rebuild the network a -checkpoint snapshot captured
	// (structural parameters come from the image header) and print what the
	// fault left behind. The checker-armed state must match the image, so a
	// snapshot saved without a checker falls back to an unchecked restore.
	if *restoreIn != "" {
		data, err := os.ReadFile(*restoreIn)
		if err != nil {
			cli.Fail(err)
		}
		info, err := snapshot.Inspect(data)
		if err != nil {
			cli.Fail(err)
		}
		cfg := info.Config()
		cfg.Shards = *shards
		ck := check.New(check.All())
		cfg.Check = ck
		net, err := snapshot.Decode(data, cfg)
		if errors.Is(err, codec.ErrUnsupported) {
			cfg.Check, ck = nil, nil
			net, err = snapshot.Decode(data, cfg)
		}
		if err != nil {
			cli.Fail(err)
		}
		defer net.Close()
		fmt.Printf("snapshot %s: %s %dx%d buffers=%d cycle=%d\n",
			*restoreIn, info.Arch, info.Topo.Width, info.Topo.Height, info.BufferDepth, net.Cycle())
		net.WriteDiagnostic(os.Stdout)
		net.CheckInvariants()
		if ck != nil {
			ck.WriteReport(os.Stdout)
		}
		return
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			cli.Fail(err)
		}
	}

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
	if *campaigns <= 0 {
		cli.Fail(errors.New("-campaigns must be positive"))
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
		ckptDir:     *ckptDir,
	}
	if *rtimeout > 0 {
		p.retransmit = &network.RetransmitConfig{Timeout: *rtimeout, Retries: *retries}
	}

	// Degradation-sweep mode: a separate experiment shape (fault-count sweep
	// of permanent link kills under bursty traffic) with its own report.
	if *degradeK > 0 {
		if err := runDegradeMode(os.Stdout, archs, p, *degradeK, *killAt, *rtimeout, *retries, pool, *out, *csvOut); err != nil {
			cli.Fail(err)
		}
		return
	}
	if err := p.validate(p.retransmit); err != nil {
		cli.Fail(err)
	}
	if *warmN > 0 {
		p.warm = make(map[router.Arch][]byte, len(archs))
		for _, a := range archs {
			img, err := warmFault(a, p, *warmN, template.Seed^0x5741524D) // "WARM"
			if err != nil {
				cli.Fail(fmt.Errorf("warm-up %s: %w", a, err))
			}
			p.warm[a] = img
		}
	}

	// Fan the (arch, campaign) grid across the pool; cells are independent
	// and individually seeded, so results are position-stable.
	cells, err := exp.Map(context.Background(), pool, len(archs)**campaigns,
		func(_ context.Context, i int) (cell, error) {
			return run(archs[i / *campaigns], i%*campaigns, p), nil
		})
	if err != nil {
		cli.Fail(err)
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "noxfault campaign report\n")
	fmt.Fprintf(&sb, "topo=%dx%d buffers=%d campaigns=%d cycles=%d load=%.4f multi=%.2f drain=%d watchdog=%d\n",
		*width, *height, *buffers, *campaigns, *cycles, *load, *multi, *drain, *watchdog)
	if *warmN > 0 {
		fmt.Fprintf(&sb, "warmstart: %d fault-free cycles shared per architecture\n", *warmN)
	}
	fmt.Fprintf(&sb, "spec template: %s\n", template)

	var overall [numOutcomes]int
	for ai, arch := range archs {
		fmt.Fprintf(&sb, "arch %s:\n", arch)
		var tally [numOutcomes]int
		var faults int64
		for ci := 0; ci < *campaigns; ci++ {
			c := cells[ai**campaigns+ci]
			tally[c.out]++
			overall[c.out]++
			var fsum int64
			for _, n := range c.faults {
				fsum += n
			}
			faults += fsum
			fmt.Fprintf(&sb, "  campaign %d: seed=0x%X faults=%d%s outcome=%s injected=%d delivered=%d violations=%d%s",
				ci, c.spec.Seed, fsum,
				kindList(c.faults[:], func(i int) fault.Kind { return fault.Kind(i) }),
				c.out, c.injected, c.delivered, c.total,
				kindList(c.counts[:], func(i int) check.Kind { return check.Kind(i) }))
			if c.undeliverable > 0 {
				fmt.Fprintf(&sb, " undeliverable=%d", c.undeliverable)
			}
			if c.epochs > 0 {
				fmt.Fprintf(&sb, " epochs=%d@%d", c.epochs, c.lastEpoch)
			}
			if c.escalated > 0 {
				fmt.Fprintf(&sb, " escalated=%d", c.escalated)
			}
			if c.retransmits > 0 || c.exhausted > 0 {
				fmt.Fprintf(&sb, " rtx=%d/%d", c.retransmits, c.exhausted)
			}
			if c.why != "" && c.why != "violations" {
				fmt.Fprintf(&sb, " (%s)", c.why)
			}
			fmt.Fprintln(&sb)
		}
		fmt.Fprintf(&sb, "  summary: clean=%d masked=%d detected=%d degraded=%d undetected=%d faults=%d\n",
			tally[outClean], tally[outMasked], tally[outDetected], tally[outDegraded], tally[outUndetected], faults)
	}
	fmt.Fprintf(&sb, "overall: campaigns=%d clean=%d masked=%d detected=%d degraded=%d undetected=%d\n",
		len(archs)**campaigns, overall[outClean], overall[outMasked], overall[outDetected], overall[outDegraded], overall[outUndetected])
	if overall[outUndetected] > 0 {
		fmt.Fprintf(&sb, "WARNING: undetected loss — the invariant layer missed faults it should catch\n")
	}

	report := sb.String()
	if *out != "" {
		if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
			cli.Fail(err)
		}
		fmt.Printf("noxfault: report written to %s (%d campaigns)\n", *out, len(archs)**campaigns)
	} else {
		fmt.Print(report)
	}
}

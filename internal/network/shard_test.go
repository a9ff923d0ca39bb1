package network

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"testing"

	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// shardCounts are the worker-pool sizes the equivalence suite sweeps:
// 1 (the serial kernel), even splits, a deliberately uneven 7, and one
// shard per router on the 4x4 test mesh.
var shardCounts = []int{1, 2, 4, 7, 16}

// TestShardedEquivalence is the bit-exactness contract of the sharded
// executor: for every router architecture and every shard count, the
// bursty workload must produce the same deliveries at the same cycles and
// the same power counters as the serial kernel.
func TestShardedEquivalence(t *testing.T) {
	for _, arch := range router.Archs {
		t.Run(arch.String(), func(t *testing.T) {
			cfg := Config{Topo: noc.Topology{Width: 4, Height: 4}, Arch: arch, Shards: 1}
			wantFP, wantC := driveBursty(t, cfg, 0x51AD)
			for _, shards := range shardCounts[1:] {
				scfg := cfg
				scfg.Shards = shards
				gotFP, gotC := driveBursty(t, scfg, 0x51AD)
				if gotFP != wantFP {
					t.Errorf("shards=%d: delivery fingerprint diverged\nsharded: %.200s\nserial:  %.200s", shards, gotFP, wantFP)
				}
				if gotC != wantC {
					t.Errorf("shards=%d: event counters diverged\nsharded: %+v\nserial:  %+v", shards, gotC, wantC)
				}
			}
		})
	}
}

// TestShardedEquivalenceAlwaysActive holds every shard count, the serial
// lane walk included, to the oracle — the serial reference stepper that
// evaluates every component every cycle.
func TestShardedEquivalenceAlwaysActive(t *testing.T) {
	cfg := Config{Topo: noc.Topology{Width: 4, Height: 4}, Arch: router.NoX}
	ref := cfg
	ref.Oracle, ref.Shards = true, 1
	wantFP, wantC := driveBursty(t, ref, 0xAC71)
	for _, shards := range shardCounts {
		scfg := cfg
		scfg.Shards = shards
		gotFP, gotC := driveBursty(t, scfg, 0xAC71)
		if gotFP != wantFP {
			t.Errorf("shards=%d: delivery fingerprint diverged", shards)
		}
		if gotC != wantC {
			t.Errorf("shards=%d: counters diverged\nsharded: %+v\nserial:  %+v", shards, gotC, wantC)
		}
	}
}

// TestShardedEquivalenceConcentrated checks the radix-8 concentrated mesh,
// whose per-node NI fanout makes each shard own several interfaces and
// their delivery ordering.
func TestShardedEquivalenceConcentrated(t *testing.T) {
	cfg := Config{Topo: noc.Topology{Width: 2, Height: 2}, Concentration: 4, Arch: router.NoX, Shards: 1}
	wantFP, wantC := driveBursty(t, cfg, 0xCC04)
	for _, shards := range []int{2, 3, 4} {
		scfg := cfg
		scfg.Shards = shards
		gotFP, gotC := driveBursty(t, scfg, 0xCC04)
		if gotFP != wantFP {
			t.Errorf("shards=%d: delivery fingerprint diverged", shards)
		}
		if gotC != wantC {
			t.Errorf("shards=%d: counters diverged", shards)
		}
	}
}

// TestShardedLaneEquivalence pins the sharded step's typed per-shard lanes to
// the serial lane walk, the sharded counterpart of TestLaneEquivalence: same
// deliveries at the same cycles, same event counters, and the same
// active-component count after every cycle — the lanes do the quiescence
// bookkeeping themselves — on every architecture, at an even and an uneven
// shard count, and on a concentrated mesh, where a shard's interfaces are a
// wider handle range than its routers.
func TestShardedLaneEquivalence(t *testing.T) {
	drive := func(cfg Config) (string, power.Counters, []int) {
		var active []int
		cfg.Observer = func(cycle int64, n int) { active = append(active, n) }
		fp, c := driveBursty(t, cfg, 0x1A9E)
		return fp, c, active
	}
	topo := noc.Topology{Width: 4, Height: 4}
	cfgs := []Config{{Topo: topo, Arch: router.NoX, Concentration: 4, Shards: 3}}
	for _, arch := range router.Archs {
		cfgs = append(cfgs, Config{Topo: topo, Arch: arch, Shards: 2}, Config{Topo: topo, Arch: arch, Shards: 7})
	}
	for _, cfg := range cfgs {
		t.Run(fmt.Sprintf("%v/c%d/shards=%d", cfg.Arch, max(cfg.Concentration, 1), cfg.Shards), func(t *testing.T) {
			ref := cfg
			ref.Shards = 1
			lanesFP, lanesC, lanesActive := drive(cfg)
			refFP, refC, refActive := drive(ref)
			if lanesFP != refFP {
				t.Errorf("sharded lanes diverged from the serial walk:\nsharded: %.200s\nserial:  %.200s", lanesFP, refFP)
			}
			if lanesC != refC {
				t.Errorf("counters diverged:\nsharded: %+v\nserial:  %+v", lanesC, refC)
			}
			if len(lanesActive) != len(refActive) {
				t.Fatalf("sharded lanes ran %d cycles, serial walk %d", len(lanesActive), len(refActive))
			}
			for cyc := range refActive {
				if lanesActive[cyc] != refActive[cyc] {
					t.Fatalf("cycle %d: %d components active sharded, %d serial", cyc, lanesActive[cyc], refActive[cyc])
				}
			}
		})
	}
}

// failingDump runs a loaded-then-idle workload with bit-flip faults on cfg,
// with a flight recorder armed the way the drivers arm it (checker
// observer, drain trigger, no probe on the run), and returns the trace the
// recorder dumps. The dump replays the run serially and fails unless the
// replay trips at the run's trigger cycle, so two runs' dumps are equal
// exactly when they latched the same trigger cycle.
func failingDump(t *testing.T, cfg Config) []byte {
	t.Helper()
	rec := telemetry.NewRecorder(telemetry.RecorderConfig{Dir: t.TempDir(), Label: "dump", Window: 32,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	// run runs the workload under recorder r: the run's own, or the
	// replay's, whose network carries its probe.
	run := func(cfg Config, r *telemetry.Recorder) *Network {
		ck := check.New(check.All())
		r.BindChecker(ck)
		cfg.Probe, cfg.Check = r.Probe(), ck
		cfg.Fault = fault.NewInjector(fault.Spec{Seed: 0xD0D0, BitFlip: 3e-4})
		net := New(cfg)
		rng := sim.NewRNG(0x9B0B)
		cores := net.Cores()
		for cyc := 0; cyc < 300; cyc++ {
			if cyc < 180 {
				for inj := 0; inj < 4; inj++ {
					src := noc.NodeID(rng.Intn(cores))
					dst := noc.NodeID(rng.Intn(cores))
					if src == dst {
						continue
					}
					length := 1
					if rng.Intn(3) == 0 {
						length = 4
					}
					net.Inject(src, dst, length, 0)
				}
			}
			net.Step()
		}
		if err := net.DrainChecked(3000, 1000); err != nil {
			r.Trigger(net.Cycle(), "drain: "+err.Error())
		}
		net.CheckInvariants()
		return net
	}
	net := run(cfg, rec)
	defer net.Close()
	if !rec.Triggered() {
		t.Fatal("the faulted run never tripped the recorder")
	}
	serial := cfg
	serial.Shards = 1
	path, err := rec.Flush(func(rr *telemetry.Recorder) { run(serial, rr).Close() }, net.WriteDiagnostic)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestShardedProbeDeterminism: a sharded failing run's flight dump must be
// byte-identical to the serial run's. A probed network runs serially, so a
// sharded run carries no probe; what it must get right is the trigger — the
// checker observer fires on shard workers — and the dump's replay of the
// run. Covered on an 8x8 mesh for NoX (the unnamed subtests) and each
// baseline, and on the concentrated 4x4 mesh, where a shard's interfaces
// span several per router.
func TestShardedProbeDeterminism(t *testing.T) {
	mesh := noc.Topology{Width: 8, Height: 8}
	// compare dumps cfg's failing run serially, then as one subtest per
	// shard count.
	compare := func(t *testing.T, cfg Config, counts []int) {
		cfg.Shards = 1
		want := failingDump(t, cfg)
		if bytes.Contains(want, []byte(`"events":0}`)) {
			t.Fatal("the serial run's dump holds no events")
		}
		for _, shards := range counts {
			t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
				scfg := cfg
				scfg.Shards = shards
				if got := failingDump(t, scfg); !bytes.Equal(got, want) {
					t.Errorf("dump not byte-identical to the serial run's (%d vs %d bytes):\n%.300s\nwant:\n%.300s", len(got), len(want), got, want)
				}
			})
		}
	}
	compare(t, Config{Topo: mesh, Arch: router.NoX}, shardCounts[1:])
	for _, arch := range []router.Arch{router.NonSpec, router.SpecFast, router.SpecAccurate} {
		t.Run(arch.String(), func(t *testing.T) {
			compare(t, Config{Topo: mesh, Arch: arch}, shardCounts[1:])
		})
	}
	t.Run("cmesh4x4x4", func(t *testing.T) {
		compare(t, Config{Topo: noc.Topology{Width: 4, Height: 4}, Concentration: 4, Arch: router.NoX}, []int{2, 3})
	})
}

// TestShardedQuiescence checks the per-shard idle accounting: a sharded
// network drains to zero active components, skips quiescent cycles, and
// wakes correctly on post-idle injection.
func TestShardedQuiescence(t *testing.T) {
	net := New(Config{Topo: noc.Topology{Width: 4, Height: 4}, Arch: router.NoX, Shards: 4})
	defer net.Close()
	net.Inject(0, 15, 3, 0)
	net.Inject(5, 10, 1, 0)
	if !net.Drain(500) {
		t.Fatal("did not drain")
	}
	for i := 0; i < 4; i++ {
		net.Step()
	}
	if n := net.kernel.ActiveComponents(); n != 0 {
		t.Errorf("%d components still active after drain", n)
	}
	if !net.Idle() {
		t.Error("network not fully idle after drain")
	}
	if skipped := net.FastForwardIdle(100); skipped != 100 {
		t.Errorf("FastForwardIdle skipped %d cycles, want 100", skipped)
	}
	before := net.Delivered()
	net.Inject(3, 12, 1, 0)
	if !net.Drain(500) {
		t.Fatal("post-quiescence injection never delivered")
	}
	if net.Delivered() != before+1 {
		t.Error("packet not delivered after wake")
	}
}

// TestShardedStepAllocs pins the 0 allocs/op contract: once mailboxes and
// event buffers have reached steady-state capacity, stepping a sharded
// network of any architecture with traffic in flight must not allocate.
func TestShardedStepAllocs(t *testing.T) {
	for _, arch := range router.Archs {
		t.Run(arch.String(), func(t *testing.T) {
			net := New(Config{Topo: noc.Topology{Width: 8, Height: 8}, Arch: arch, Shards: 4})
			defer net.Close()
			rng := sim.NewRNG(7)
			cores := net.Cores()
			warm := func() {
				for inj := 0; inj < 3; inj++ {
					src := noc.NodeID(rng.Intn(cores))
					dst := noc.NodeID(rng.Intn(cores))
					if src != dst {
						net.Inject(src, dst, 2, 0)
					}
				}
				net.Step()
			}
			for cyc := 0; cyc < 200; cyc++ {
				warm()
			}
			if avg := testing.AllocsPerRun(100, func() { net.Step() }); avg != 0 {
				t.Errorf("sharded Step allocates %v allocs/op in steady state", avg)
			}
		})
	}
}

// TestAutoShards pins the crossover heuristic's fixed points: meshes below
// 24x24 and single-CPU hosts stay serial (16x16 only ties serial on two
// shards), and from the crossover up the count is at least two and never
// more than GOMAXPROCS — a shard count the barrier could not spin for.
func TestAutoShards(t *testing.T) {
	for _, routers := range []int{64, 256, 575} {
		if got := AutoShards(routers); got != 1 {
			t.Errorf("AutoShards(%d) = %d, want 1 (below crossover)", routers, got)
		}
	}
	procs := runtime.GOMAXPROCS(0)
	for _, routers := range []int{576, 1024, 4096} {
		got := AutoShards(routers)
		switch {
		case procs == 1 && got != 1:
			t.Errorf("AutoShards(%d) = %d on one CPU, want 1", routers, got)
		case procs > 1 && (got < 2 || got > procs):
			t.Errorf("AutoShards(%d) = %d on %d CPUs, want 2..%d", routers, got, procs, procs)
		}
	}
	if procs == 2 {
		if got := AutoShards(1024); got != 2 {
			t.Errorf("AutoShards(1024) = %d on 2 CPUs, want 2", got)
		}
	}
}

package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/noc"
	"repro/internal/router"
)

// smoke is fault-smoke's campaign configuration, at the flags' defaults
// otherwise.
var smoke = params{
	topo: noc.Topology{Width: 4, Height: 4}, bufferDepth: 4, shards: 1,
	cycles: 800, load: 0.02, multi: 0.25, drain: 10000, watchdog: 3000,
	template: fault.Spec{Seed: 0xF001, BitFlip: 0.001, StallCycles: 8},
}

// TestReportGoldens runs three reports in-process and requires each file to
// match, byte for byte, the one the noxfault command line wrote in
// testdata/: fault-smoke's campaigns, a warm-started campaign set, and
// fault-perm-smoke's degrade sweep with its CSV.
func TestReportGoldens(t *testing.T) {
	warm := smoke
	warm.cycles, warm.drain, warm.watchdog = 600, 20000, 4000
	perm := smoke
	perm.load = 0.04
	perm.retransmit = &network.RetransmitConfig{Timeout: 96, Retries: 4}
	pool := exp.NewPool(0)
	for _, tc := range []struct {
		name string
		run  func(out, csv string) error
	}{
		// noxfault -arch all -width 4 -height 4 -campaigns 2 -cycles 800 -drain 10000 -watchdog 3000 -seed 0xF001
		{"campaign_smoke", func(out, _ string) error {
			return runCampaignMode(io.Discard, router.Archs, smoke, 2, 0, pool, out)
		}},
		// noxfault -arch all -width 4 -height 4 -campaigns 3 -cycles 600 -warmstart 400
		{"campaign_warmstart", func(out, _ string) error {
			return runCampaignMode(io.Discard, router.Archs, warm, 3, 400, pool, out)
		}},
		// noxfault -arch all -width 4 -height 4 -degrade 2 -kill 400 -cycles 800 -load 0.04
		//   -drain 10000 -watchdog 3000 -seed 0xF001 -csv degrade_smoke.csv
		{"degrade_smoke", func(out, csv string) error {
			return runDegradeMode(io.Discard, router.Archs, perm, 2, 400, pool, out, csv)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := tc.run(filepath.Join(dir, tc.name+".txt"), filepath.Join(dir, tc.name+".csv")); err != nil {
				t.Fatal(err)
			}
			goldens, _ := filepath.Glob(filepath.Join("testdata", tc.name+".*"))
			if len(goldens) == 0 {
				t.Fatal("no golden")
			}
			for _, golden := range goldens {
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(filepath.Join(dir, filepath.Base(golden)))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s differs from the golden:\n%s", filepath.Base(golden), got)
				}
			}
		})
	}
}

// TestWarmStartRetransmission: a warm image is built with the campaigns'
// retransmission, so an -rtimeout campaign restores it and is classified by
// its faults, not by a warm-restore panic.
func TestWarmStartRetransmission(t *testing.T) {
	p := smoke
	p.cycles = 600
	p.retransmit = &network.RetransmitConfig{Timeout: 100, Retries: 4}
	var out strings.Builder
	if err := runCampaignMode(&out, []router.Arch{router.NoX}, p, 2, 100, nil, ""); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "panic") || !strings.Contains(out.String(), "warmstart: 100") {
		t.Errorf("report:\n%s", out.String())
	}
}

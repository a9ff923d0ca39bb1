package noxnet_test

import (
	"testing"

	noxnet "repro"
)

// TestFacadeQuickstart exercises the README quick-start path through the
// public API only.
func TestFacadeQuickstart(t *testing.T) {
	net := noxnet.NewNetwork(noxnet.NetworkConfig{Arch: noxnet.NoX})
	var latency int64
	net.OnDeliver = func(p *noxnet.Packet, cycle int64) { latency = p.Latency() }
	net.Inject(0, 63, 1, 0)
	if !net.Drain(1000) {
		t.Fatal("packet did not drain")
	}
	if latency <= 0 {
		t.Fatal("latency not recorded")
	}
}

// TestFacadeTable2 checks the re-exported physical model.
func TestFacadeTable2(t *testing.T) {
	want := map[noxnet.Arch]float64{
		noxnet.NonSpec: 0.92, noxnet.SpecFast: 0.69, noxnet.SpecAccurate: 0.72, noxnet.NoX: 0.76,
	}
	for arch, ns := range want {
		if got := noxnet.ClockPeriodNs(arch); got != ns {
			t.Errorf("%v period %v != %v", arch, got, ns)
		}
	}
	if len(noxnet.Archs) != 4 {
		t.Error("Archs should list all four architectures")
	}
}

// TestFacadeSynthetic runs one public-API synthetic experiment.
func TestFacadeSynthetic(t *testing.T) {
	res, err := noxnet.RunSynthetic(noxnet.SyntheticConfig{
		Arch:          noxnet.NoX,
		Pattern:       "uniform",
		RateMBps:      800,
		WarmupCycles:  500,
		MeasureCycles: 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated || res.MeanLatencyNs <= 0 {
		t.Errorf("unexpected result: %+v", res)
	}
}

// TestFacadeApp runs one public-API application experiment.
func TestFacadeApp(t *testing.T) {
	w, err := noxnet.WorkloadByName("water")
	if err != nil {
		t.Fatal(err)
	}
	tr := noxnet.GenerateTrace(w, noxnet.Table1().Topo, 4000, 5)
	res := noxnet.RunApp(noxnet.AppConfig{Arch: noxnet.SpecAccurate, Trace: tr})
	if !res.Drained || res.MeanLatencyNs <= 0 {
		t.Errorf("unexpected app result: %+v", res)
	}
}

// TestFacadeInventory checks the workload and pattern listings.
func TestFacadeInventory(t *testing.T) {
	if len(noxnet.Workloads()) != 8 {
		t.Errorf("want 8 workloads, got %d", len(noxnet.Workloads()))
	}
	if len(noxnet.PatternNames()) < 5 {
		t.Error("pattern list suspiciously short")
	}
	if m := noxnet.DefaultEnergyModel(); m.LinkPJ <= m.XbarPJ {
		t.Error("link energy should dominate crossbar energy")
	}
	cfg := noxnet.Table1()
	if cfg.Cores != 64 || cfg.Topo.Width != 8 {
		t.Errorf("Table 1 mismatch: %+v", cfg)
	}
}

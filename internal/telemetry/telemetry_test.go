package telemetry

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/power"
)

// TestRegistryRoundTrip renders a registry holding every metric shape the
// package emits and feeds the output back through ParseExposition — the
// format the telemetry-smoke gate validates against a live server.
func TestRegistryRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.AddCounterFunc("nox_test_total", "a counter", func() float64 { return 42 })
	reg.AddGaugeFunc("nox_test_gauge", "a gauge", func() float64 { return 2.5 })
	reg.AddRaw(ArchEventWriter(func() map[string]power.Counters {
		return map[string]power.Counters{
			"NoX":      {Xbar: 7, Decode: 3},
			"Non-Spec": {BufWrite: 1},
		}
	}))

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE nox_test_total counter",
		"nox_test_total 42",
		"# TYPE nox_test_gauge gauge",
		"nox_test_gauge 2.5",
		`nox_arch_events_total{arch="NoX",event="xbar"} 7`,
		`nox_arch_events_total{arch="Non-Spec",event="buf_write"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	samples, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("ParseExposition rejected registry output: %v", err)
	}
	// Two scalars plus 13 event kinds for each of the two architectures.
	if want := 2 + 2*13; samples != want {
		t.Errorf("ParseExposition counted %d samples, want %d", samples, want)
	}
}

func TestParseExpositionRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"no value", "nox_cycles_total\n"},
		{"bad value", "nox_cycles_total forty\n"},
		{"bad name", "9leading_digit 1\n"},
		{"unterminated labels", `nox_x{arch="NoX" 1` + "\n"},
		{"bad type comment", "# TYPE nox_x flavor\n"},
		{"bad timestamp", "nox_x 1 soon\n"},
		{"trailing garbage", "nox_x 1 2 3\n"},
	}
	for _, tc := range cases {
		if _, err := ParseExposition([]byte(tc.doc)); err == nil {
			t.Errorf("%s: ParseExposition accepted %q", tc.name, tc.doc)
		}
	}
	// Accepted shapes: free-form comments, blank lines, labels with escaped
	// quotes, explicit timestamps.
	ok := "# just a comment\n\nnox_x{l=\"a\\\"b\"} 1 1700000000\nnox_y 2\n"
	samples, err := ParseExposition([]byte(ok))
	if err != nil {
		t.Fatalf("ParseExposition rejected valid doc: %v", err)
	}
	if samples != 2 {
		t.Errorf("counted %d samples, want 2", samples)
	}
}

func TestSamplerCounts(t *testing.T) {
	s := NewSampler(time.Hour) // throttle never fires during the test
	for i := 0; i < 5; i++ {
		s.Observe(int64(i), 3)
	}
	s.CountInject(4, 8)
	s.CountDeliver(2, 2)
	s.RunStarted()
	s.RunDone("NoX", power.Counters{Xbar: 10})
	s.RunDone("NoX", power.Counters{Xbar: 5, Decode: 1})

	if c, a := s.cycles.Load(), s.active.Load(); c != 5 || a != 3 {
		t.Errorf("cycles=%d active=%d, want 5/3", c, a)
	}
	if p, f := s.injectedPackets.Load(), s.injectedFlits.Load(); p != 4 || f != 8 {
		t.Errorf("injected %d/%d, want 4/8", p, f)
	}
	if p, f := s.deliveredPackets.Load(), s.deliveredFlits.Load(); p != 2 || f != 2 {
		t.Errorf("delivered %d/%d, want 2/2", p, f)
	}
	if st, d := s.runsStarted.Load(), s.runsDone.Load(); st != 1 || d != 2 {
		t.Errorf("runs %d/%d, want 1 started 2 done", st, d)
	}
	arch := s.archSnapshot()
	if got := arch["NoX"]; got.Xbar != 15 || got.Decode != 1 {
		t.Errorf("arch totals did not accumulate: %+v", got)
	}

	// The sampler's registry output must itself round-trip.
	reg := NewRegistry()
	s.Register(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if _, err := ParseExposition(buf.Bytes()); err != nil {
		t.Fatalf("sampler exposition does not parse: %v", err)
	}
}

// TestNilSafety exercises every nil-receiver path the hot loops rely on: a
// disabled telemetry plane must cost only the nil checks, never panic.
func TestNilSafety(t *testing.T) {
	var s *Sampler
	s.Observe(1, 2)
	s.CountInject(1, 1)
	s.CountDeliver(1, 1)
	s.RunStarted()
	s.RunDone("NoX", power.Counters{})
	s.Tick(1)
	s.Done(1)
	s.EnableLog(nil)
	s.Register(NewRegistry())
	if arch := s.archSnapshot(); arch != nil {
		t.Errorf("nil sampler has arch totals: %+v", arch)
	}

	var r *Recorder
	r.SetPeriodNs(1)
	r.BindChecker(nil)
	r.Trigger(1, "x")
	if r.Triggered() {
		t.Error("nil recorder reports triggered")
	}
	if p := r.Probe(); p != nil {
		t.Error("nil recorder returned a live probe")
	}
	if path, err := r.Flush(nil, nil); path != "" || err != nil {
		t.Errorf("nil recorder Flush = %q, %v", path, err)
	}

	var srv *Server
	if err := srv.Close(); err != nil {
		t.Errorf("nil server Close: %v", err)
	}
}

func TestRecorderTriggerFirstWins(t *testing.T) {
	r := NewRecorder(RecorderConfig{Dir: t.TempDir(), Window: 100})
	if r.Triggered() {
		t.Fatal("fresh recorder already triggered")
	}
	r.Trigger(500, "first failure")
	r.Trigger(900, "second failure")
	if !r.Triggered() {
		t.Fatal("recorder not triggered")
	}
	start, end := r.Window()
	if start != 401 || end != 500 {
		t.Errorf("window [%d,%d], want [401,500] (first trigger wins)", start, end)
	}

	// Early triggers clamp the window start at cycle 0.
	r2 := NewRecorder(RecorderConfig{Dir: t.TempDir(), Window: 100})
	r2.Trigger(10, "early")
	if start, end := r2.Window(); start != 0 || end != 10 {
		t.Errorf("window [%d,%d], want [0,10]", start, end)
	}
}

func TestRecorderFlushWithoutTrigger(t *testing.T) {
	r := NewRecorder(RecorderConfig{Dir: t.TempDir()})
	replayed := false
	path, err := r.Flush(func(*Recorder) { replayed = true }, nil)
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if path != "" {
		t.Errorf("untriggered recorder dumped %q", path)
	}
	if replayed {
		t.Error("untriggered recorder replayed the run")
	}
}

func TestSanitizeLabel(t *testing.T) {
	for in, want := range map[string]string{
		"app-blackscholes-NoX": "app-blackscholes-NoX",
		"future mesh/8x8:Spec": "future-mesh-8x8-Spec",
		"a_b.c-1":              "a_b.c-1",
	} {
		if got := sanitizeLabel(in); got != want {
			t.Errorf("sanitizeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestServerEndpoints boots the live telemetry server on an ephemeral port
// and scrapes every endpoint the Makefile's telemetry-smoke target curls.
// /events, the deleted progress stream, must stay gone.
func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.AddCounterFunc("nox_cycles_total", "cycles", func() float64 { return 123 })
	srv, err := StartServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	defer srv.Close()

	get := func(path string) (int, []byte) {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, body
	}

	if code, body := get("/metrics"); code != http.StatusOK {
		t.Errorf("/metrics status %d", code)
	} else {
		n, err := ParseExposition(body)
		if err != nil || n == 0 {
			t.Errorf("/metrics not valid exposition (%d samples): %v\n%s", n, err, body)
		}
		if !strings.Contains(string(body), "nox_cycles_total 123") {
			t.Errorf("/metrics missing registered counter:\n%s", body)
		}
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get("/debug/vars"); code != http.StatusOK || !strings.Contains(string(body), "memstats") {
		t.Errorf("/debug/vars = %d (memstats missing)", code)
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}
	if code, body := get("/"); code != http.StatusOK || !strings.Contains(string(body), "/metrics") {
		t.Errorf("index = %d (endpoint catalogue missing)", code)
	}
	for _, path := range []string{"/nope", "/events"} {
		if code, _ := get(path); code != http.StatusNotFound {
			t.Errorf("%s status %d, want 404", path, code)
		}
	}
}

// TestRecorderDone pins when a replay may stop: never on a live run's
// recorder, and on a replay's once it has latched its trigger and stepped
// the trigger cycle.
func TestRecorderDone(t *testing.T) {
	r := NewRecorder(RecorderConfig{Dir: t.TempDir(), Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	r.Trigger(5, "by hand")
	if r.Done(1 << 40) {
		t.Error("a live run's recorder reports Done")
	}
	stopped := int64(-1)
	if _, err := r.Flush(func(rr *Recorder) {
		for c := int64(0); c < 100; c++ {
			if rr.Done(c) {
				stopped = c
				return
			}
			if c == 5 {
				rr.Trigger(c, "by hand")
			}
		}
	}, nil); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if stopped != 6 {
		t.Errorf("replay stopped at cycle %d, want 6: right after the trigger cycle", stopped)
	}
}

package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzDecodeSnapshot drives parseBenchOutput, the reader of a benchmark
// run's output, on arbitrary bytes: it must never panic, and a run it
// accepts must close on a result object that says correct:true and
// failed:0.
func FuzzDecodeSnapshot(f *testing.F) {
	head, result, _ := strings.Cut(lowloadRun, "{")
	f.Add([]byte(lowloadRun))
	f.Add([]byte(head + "cell sweep/nox/r200: digest 3f2a, want 9c1e\n" +
		strings.Replace("{"+result, `"correct":true,"attempted":72,"failed":0`, `"correct":false,"attempted":72,"failed":1`, 1)))
	f.Add([]byte(head + "metric wall_s reported 0 times, want once\n" +
		strings.Replace("{"+result, `"correct":true`, `"correct":false`, 1)))
	f.Add([]byte(head + strings.Replace("{"+result, `"failed":0`, `"failed":2`, 1)))
	f.Add([]byte("# repro/benchmark\n./main.go:12:2: undefined: harness.RunApp\n"))
	f.Add([]byte(strings.ReplaceAll(lowloadRun, "\n", "\r\n")))
	f.Add([]byte(lowloadRun + "\n\n  \n"))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := parseBenchOutput(data)
		if err != nil {
			return
		}
		if r.Metrics == nil || r.Facts == nil {
			t.Fatalf("accepted run with nil maps: %+v", r)
		}
		var last string
		for _, line := range strings.Split(string(data), "\n") {
			if strings.TrimSpace(line) != "" {
				last = line
			}
		}
		var res struct {
			Correct bool `json:"correct"`
			Failed  int  `json:"failed"`
		}
		if err := json.Unmarshal([]byte(last), &res); err != nil || !res.Correct || res.Failed != 0 {
			t.Fatalf("accepted a run whose last line %q is not a correct result (%+v, %v)", last, res, err)
		}
	})
}

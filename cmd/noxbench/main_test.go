package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDirtyGuard pins the record provenance rule: file writes from a
// dirty tree are refused without -allow-dirty, loudly warned with it, and
// stdout output or a clean tree always passes.
func TestDirtyGuard(t *testing.T) {
	if warn, err := dirtyGuard("BENCH_X.json", false, false); err != nil || warn != "" {
		t.Errorf("clean tree: warn=%q err=%v, want silence", warn, err)
	}
	if _, err := dirtyGuard("BENCH_X.json", true, false); err == nil {
		t.Error("dirty tree file write without -allow-dirty was not refused")
	}
	warn, err := dirtyGuard("BENCH_X.json", true, true)
	if err != nil {
		t.Errorf("dirty tree with -allow-dirty refused: %v", err)
	}
	if !strings.Contains(warn, "WARNING") || !strings.Contains(warn, "head_dirty") {
		t.Errorf("dirty override warning not loud enough: %q", warn)
	}
	if warn, err := dirtyGuard("-", true, false); err != nil || warn != "" {
		t.Errorf("stdout output from dirty tree: warn=%q err=%v, want silence", warn, err)
	}
}

// TestRunCompareExitCodes: runAB exits 1 with the usage message on a
// missing -base, -n below 1, a working directory without BENCHMARK.json, no
// -workload when BENCHMARK.json lists none, or one -out file for every
// workload — all before it calls git (PATH holds no git, so a git call fails
// with another message). Without -workload it runs every listed workload:
// it gets past the arguments to git.
func TestRunCompareExitCodes(t *testing.T) {
	t.Setenv("PATH", t.TempDir())
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	root, unlisted, bare := t.TempDir(), t.TempDir(), t.TempDir()
	for dir, workloads := range map[string]string{root: `[{"name":"fig10-apps"},{"name":"mesh32-dense"}]`, unlisted: `[]`} {
		contract := `{"run_seconds":8,"workloads":` + workloads + `,"end_to_end":[{"name":"wall_s","better":"lower"}]}`
		if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), []byte(contract), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name, dir, base, workload, out string
		n                              int
		usage                          bool
	}{
		{"no base", root, "", "fig10-apps", "-", 10, true},
		{"no workload: every workload", root, "HEAD", "", "", 10, false},
		{"no workload, none listed", unlisted, "HEAD", "", "-", 10, true},
		{"one -out file for every workload", root, "HEAD", "", "BENCH_X.json", 10, true},
		{"zero pairs", root, "HEAD", "fig10-apps", "-", 0, true},
		{"no BENCHMARK.json", bare, "HEAD", "fig10-apps", "-", 10, true},
	} {
		if err := os.Chdir(c.dir); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr strings.Builder
		if st := runAB(&stdout, &stderr, c.base, "", c.workload, c.n, c.out, false); st != 1 {
			t.Errorf("%s: exit %d, want 1", c.name, st)
		}
		if usage := strings.Contains(stderr.String(), "noxbench: needs -base, -n >= 1"); usage != c.usage || stdout.Len() != 0 {
			t.Errorf("%s: stderr %q, stdout %q: want the usage message alone %v", c.name, stderr.String(), stdout.String(), c.usage)
		}
		if !c.usage && !strings.Contains(stderr.String(), "git") {
			t.Errorf("%s: stderr %q, want a failed git call", c.name, stderr.String())
		}
	}
}

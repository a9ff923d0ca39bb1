package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// The golden files hold, per workload, the digest of every cell's simulated
// statistics at the default seed, at both scales. A change meant only to
// speed the simulator up must leave them all identical.
//
//go:embed golden/*.json
var goldenFS embed.FS

type goldenFile struct {
	Seed uint64            `json:"seed"`
	Full map[string]string `json:"full"`
	Tiny map[string]string `json:"tiny"`
}

func loadGolden(workload string) (goldenFile, error) {
	var g goldenFile
	data, err := goldenFS.ReadFile("golden/" + workload + ".json")
	if err != nil {
		return g, fmt.Errorf("no golden file for %s (run -update-golden): %w", workload, err)
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return g, fmt.Errorf("golden/%s.json: %w", workload, err)
	}
	return g, nil
}

// goldenCells runs the workload's set-up and one repetition at the default
// seed and returns the cells.
func goldenCells(workload string, tiny bool) ([]cell, error) {
	w, err := newWorkload(workload, defaultSeed, tiny)
	if err != nil {
		return nil, err
	}
	if err := w.setup(nil); err != nil {
		return nil, err
	}
	return w.rep(nil), nil
}

// goldenMismatches compares simulated statistics against the golden file
// and describes every cell that differs. The tiny-scale pass at the default
// seed runs whatever seed the run was given, so the count means something
// on every traced run; a full-scale run at the default seed also compares
// its own cells.
func goldenMismatches(o options, cells []cell) ([]string, error) {
	g, err := loadGolden(o.workload)
	if err != nil {
		return nil, err
	}
	var out []string
	compare := func(scale string, want map[string]string, got []cell) {
		seen := map[string]bool{}
		for _, c := range got {
			seen[c.ID] = true
			if want[c.ID] != c.Digest {
				out = append(out, fmt.Sprintf("golden mismatch: workload=%s scale=%s cell=%s digest %s, golden %q", o.workload, scale, c.ID, c.Digest, want[c.ID]))
			}
		}
		for id := range want {
			if !seen[id] {
				out = append(out, fmt.Sprintf("golden mismatch: workload=%s scale=%s cell=%s in the golden file did not run", o.workload, scale, id))
			}
		}
	}
	tiny := cells
	if !(o.tiny && o.seed == defaultSeed) {
		if tiny, err = goldenCells(o.workload, true); err != nil {
			return nil, err
		}
	}
	compare("tiny", g.Tiny, tiny)
	if !o.tiny && o.seed == defaultSeed {
		compare("full", g.Full, cells)
	}
	return out, nil
}

func updateGolden(workloads []string, dir string, log io.Writer) error {
	for _, name := range workloads {
		g := goldenFile{Seed: defaultSeed, Full: map[string]string{}, Tiny: map[string]string{}}
		for _, scale := range []struct {
			tiny bool
			into map[string]string
		}{{false, g.Full}, {true, g.Tiny}} {
			cells, err := goldenCells(name, scale.tiny)
			if err != nil {
				return err
			}
			for _, c := range cells {
				if c.Fail != "" {
					return fmt.Errorf("%s: cell %s failed (%s); not recording a golden digest of a failure", name, c.ID, c.Fail)
				}
				scale.into[c.ID] = c.Digest
			}
		}
		data, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(log, "golden: %s (%d full cells, %d tiny cells)\n", path, len(g.Full), len(g.Tiny))
	}
	return nil
}

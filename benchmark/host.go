package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// printHost prints the line that heads every output: timings from different
// hosts, CPU counts or loads are not comparable, so each result says where
// it was taken.
func printHost(w io.Writer) {
	sha, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision" && len(s.Value) >= 12:
				sha = s.Value[:12]
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d cpu=%q go=%s git=%s%s load1=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), sha, dirty, loadAvg1())
}

// procField returns the value of the first "key: value" line of a /proc
// file, "unknown" when the file or the key is missing.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func cpuModel() string { return procField("/proc/cpuinfo", "model name") }

func loadAvg1() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.Fields(string(data))[0]
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM). Without
// /proc it falls back to the Go runtime's view of memory obtained from the
// OS, so the metric is never zero.
func peakRSSMB() float64 {
	if kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64); err == nil && kb > 0 {
		return kb / 1024
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

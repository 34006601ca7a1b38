package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile for it
// to be reported as measured rather than extrapolated.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples and whether at least minBeyond samples lie strictly beyond its
// rank. It sorts a copy; samples is left untouched.
func percentile(samples []float64, p float64) (v float64, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	r := rank(n, p)
	return s[r-1], n-r >= minBeyond
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p/100*float64(n))), 1), n)
}

// minSamplesFor is the smallest sample count for which the p-th
// percentile has minBeyond samples beyond it.
func minSamplesFor(p float64) int {
	n := 1
	for n-rank(n, p) < minBeyond {
		n++
	}
	return n
}

// median of a non-empty sample (nearest-rank).
func median(samples []float64) float64 {
	v, _ := percentile(samples, 50)
	return v
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// peak-resident-set mark (VmHWM) at the current resident set.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set in MiB since the last
// resetPeakRSS: VmHWM from /proc/self/status, or getrusage's ru_maxrss
// (the peak since start, in KiB on Linux) where that file is missing.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// meter brackets a timed phase: wall time, process CPU time, and bytes
// allocated on the Go heap since start.
type meter struct {
	t0     time.Time
	cpu0   time.Duration
	alloc0 uint64
}

// phaseCost is what a meter measured at stop.
type phaseCost struct {
	Wall  time.Duration
	Alloc uint64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{t0: time.Now(), cpu0: cpuTime(), alloc0: ms.TotalAlloc}
}

func (m meter) stop() phaseCost {
	wall := time.Since(m.t0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return phaseCost{Wall: wall, Alloc: ms.TotalAlloc - m.alloc0}
}

// envStamp identifies the machine and build a result was measured on.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Workers    int    `json:"workers"`
}

func stampEnv(seed uint64, workers int) envStamp {
	return envStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     commit(),
		Seed:       seed,
		Workers:    workers,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// ran inside a git checkout ("unknown" otherwise, e.g. in an exported
// tree).
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

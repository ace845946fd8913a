package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is a snapshot of this process's resource counters.
type usage struct {
	at      time.Time
	cpuS    float64 // user + system CPU seconds
	alloc   uint64  // cumulative bytes allocated
	gcs     uint32  // completed GC cycles
	pauseNS uint64  // cumulative stop-the-world pause
}

func takeUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{at: time.Now(), cpuS: cpuSeconds(), alloc: ms.TotalAlloc, gcs: ms.NumGC, pauseNS: ms.PauseTotalNs}
}

// delta is the resource use between two snapshots.
type delta struct {
	wallS, cpuS, allocMB, gcPauseMS float64
	gcs                             int
}

func (u usage) since(prev usage) delta {
	return delta{
		wallS:     u.at.Sub(prev.at).Seconds(),
		cpuS:      u.cpuS - prev.cpuS,
		allocMB:   float64(u.alloc-prev.alloc) / 1e6,
		gcs:       int(u.gcs - prev.gcs),
		gcPauseMS: float64(u.pauseNS-prev.pauseNS) / 1e6,
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads this process's high-water resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	const path = "/proc/self/status"
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1e3, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// percentile is the nearest-rank percentile of xs (p in (0, 100]).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentile is the highest percentile of xs that has at least ten
// samples beyond it (p99 from 1,000 samples), but never one below p90:
// with fewer than 100 samples it is the nearest-rank p90.
func tailPercentile(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	i := int(math.Ceil(0.9*float64(n))) - 1
	if n-11 > i {
		i = n - 11
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// hostFacts describes the machine a run measured, so figures taken on
// different machines are never compared unawares.
func hostFacts() map[string]any {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"gogc":       gogc,
		"cpu":        cpuModel(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

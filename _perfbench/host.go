package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// provenance is the host and workload identity printed with every
// result, so figures from a slower host can be told from a regression.
type provenance struct {
	HostCPUs   int     `json:"host_cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	CalibNs    float64 `json:"calib_ns_per_op"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	Workload   shape   `json:"workload"`
}

func hostProvenance(s shape, seed int64, seconds float64, trace int) provenance {
	return provenance{
		HostCPUs:   runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		CalibNs:    calibrate(),
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		Workload:   s,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo
// ("unknown" where there is none).
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

// calibSink keeps the reference loop from being optimised away.
var calibSink uint64

// calibrate times a fixed, allocation-free reference loop (an xorshift
// PRNG folded into a small table) and returns the median ns per
// iteration over five passes. It depends only on the core's integer
// and L1 speed, so it scales with the host, not with this repository.
func calibrate() float64 {
	const iters = 2_000_000
	var table [256]uint64
	samples := make([]float64, 5)
	for p := range samples {
		x := uint64(88172645463325252)
		t := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			table[x&255] += x
		}
		samples[p] = float64(time.Since(t).Nanoseconds()) / iters
		calibSink += table[x&255]
	}
	return median(samples)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// heapCounters are the exact cumulative allocation counters.
type heapCounters struct{ bytes, objects uint64 }

func readHeap() heapCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heapCounters{bytes: ms.TotalAlloc, objects: ms.Mallocs}
}

// gcSample is a runtime/metrics snapshot of the collector's work.
type gcSample struct {
	cycles  uint64
	gcCPU   float64 // seconds
	allCPU  float64 // seconds
	pauseNs float64 // approximate: histogram bucket midpoints × counts
}

var gcMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readGC() gcSample {
	ms := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var g gcSample
	if ms[0].Value.Kind() == metrics.KindUint64 {
		g.cycles = ms[0].Value.Uint64()
	}
	if ms[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = ms[1].Value.Float64()
	}
	if ms[2].Value.Kind() == metrics.KindFloat64 {
		g.allCPU = ms[2].Value.Float64()
	}
	if ms[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := ms[3].Value.Float64Histogram()
		for i, c := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if c == 0 || math.IsInf(lo, 0) {
				continue
			}
			if math.IsInf(hi, 0) {
				hi = lo
			}
			g.pauseNs += float64(c) * (lo + hi) / 2 * 1e9
		}
	}
	return g
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

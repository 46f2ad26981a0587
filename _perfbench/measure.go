package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
)

// cpuSeconds is the process's user+system CPU time. Throughput divides by
// it rather than by wall time: on a shared host, time the process spends
// descheduled shows in wall time but not here.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeCounters reads the Go runtime's cumulative heap and GC counters.
type runtimeCounters struct {
	allocBytes uint64  // heap bytes allocated
	gcCycles   uint64  // completed GC cycles
	gcCPU      float64 // estimated CPU seconds spent in GC
}

var counterNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds"}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(counterNames))
	for i, n := range counterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
	}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{allocBytes: a.allocBytes - b.allocBytes, gcCycles: a.gcCycles - b.gcCycles, gcCPU: a.gcCPU - b.gcCPU}
}

// loadavg is the first line of /proc/loadavg, or "" where it is missing.
func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// median of xs (NaN for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

package main

import "strings"

// Layers are the simulator's modules, named after their bingo/internal
// packages. Profile samples are charged to the layer of the innermost
// frame that belongs to one; standard-library and runtime frames, and
// the leaf helpers mem (address arithmetic, hashing) and san (the
// sanitizer, compiled out by default), are charged to their nearest
// caller that has a layer.
var layerOfPackage = map[string]string{
	"bingo/internal/workloads":  "workloads",
	"bingo/internal/trace":      "workloads",
	"bingo/internal/system":     "system",
	"bingo/internal/sched":      "sched",
	"bingo/internal/cpu":        "cpu",
	"bingo/internal/cache":      "cache",
	"bingo/internal/dram":       "dram",
	"bingo/internal/vm":         "vm",
	"bingo/internal/prefetch":   "prefetch",
	"bingo/internal/core":       "prefetch",
	"bingo/internal/checkpoint": "checkpoint",
	"bingo/internal/harness":    "harness",
	"bingo/internal/telemetry":  "telemetry",
}

// Every package under this prefix is a baseline prefetcher.
const prefetchersPrefix = "bingo/internal/prefetchers/"

// Layers reported as <layer>.self_pct, in output order.
var selfPctLayers = []string{"workloads", "system", "sched", "cpu", "cache", "dram", "vm", "prefetch", "telemetry"}

// Buckets for samples outside every layer.
const (
	bucketBench = "bench" // the benchmark's own code: tracing wrappers, checks
	bucketGC    = "gc"    // background and assist garbage collection
	bucketOther = "other" // runtime scheduler, profiler, anything else
)

// layerOf returns the layer of a package import path, "" for a helper or
// non-bingo package.
func layerOf(pkg string) string {
	if l, ok := layerOfPackage[pkg]; ok {
		return l
	}
	if strings.HasPrefix(pkg, prefetchersPrefix) {
		return "prefetch"
	}
	return ""
}

// funcPackage extracts the package import path from a symbol name such as
// "bingo/internal/cache.(*Cache).Access" or
// "bingo/internal/prefetch.(*Table[go.shape.uint64]).Lookup".
func funcPackage(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	if dot := strings.IndexByte(head[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return head
}

// isGCFrame reports runtime functions that only run garbage collection.
func isGCFrame(fn string) bool {
	switch fn {
	case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.GC":
		return true
	}
	return false
}

// bucketOf charges one sample, given its frames innermost first.
func bucketOf(frames []string) string {
	for _, fn := range frames {
		if isGCFrame(fn) {
			return bucketGC
		}
	}
	for _, fn := range frames {
		if strings.HasPrefix(fn, "main.") {
			return bucketBench
		}
		if l := layerOf(funcPackage(fn)); l != "" {
			return l
		}
	}
	return bucketOther
}

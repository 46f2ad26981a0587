package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit. The lists below must
// match BENCHMARK.json at the repository root (metrics_test.go checks).
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is what a user of the simulator sees; it is reported with
// -trace 0 on every workload.
var endToEnd = []metricDef{
	{"minstr_per_cpu_s", "Minstr/s"},
	{"minstr_per_cpu_s.lockstep", "Minstr/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
	{"bingo_speedup", "x"},
	{"bingo_coverage", "%"},
}

// perLayer is reported with -trace 1 on every workload; a layer that a
// workload does not run reads 0 there. Layer names are the package names
// of bingo/internal (see layers.go). wall_s is recorded here, not gated:
// on a shared host it carries the hypervisor's steal time.
var perLayer = []metricDef{
	{"wall_s", "s"},
	{"workloads.build_s", "s"},
	{"workloads.build_alloc_mb", "MB"},
	{"workloads.records", "count"},
	{"workloads.next_ns", "ns"},
	{"workloads.self_pct", "%"},
	{"system.new_s", "s"},
	{"system.warmup_s", "s"},
	{"system.measure_s", "s"},
	{"system.cycles", "count"},
	{"system.advances", "count"},
	{"system.skipped_pct", "%"},
	{"system.ns_per_cycle.lockstep", "ns"},
	{"system.ns_per_advance", "ns"},
	{"system.self_pct", "%"},
	{"sched.self_pct", "%"},
	{"cpu.instructions", "count"},
	{"cpu.mem_stall_cycles", "count"},
	{"cpu.self_pct", "%"},
	{"cache.l1.accesses", "count"},
	{"cache.l1.misses", "count"},
	{"cache.llc.accesses", "count"},
	{"cache.llc.misses", "count"},
	{"cache.llc.mpki", "misses/kinstr"},
	{"cache.self_pct", "%"},
	{"dram.reads", "count"},
	{"dram.row_hit_pct", "%"},
	{"dram.self_pct", "%"},
	{"vm.self_pct", "%"},
	{"prefetch.on_access.calls", "count"},
	{"prefetch.on_access.ns", "ns"},
	{"prefetch.on_eviction.calls", "count"},
	{"prefetch.on_eviction.ns", "ns"},
	{"prefetch.predicted", "count"},
	{"prefetch.issued", "count"},
	{"prefetch.dropped", "count"},
	{"prefetch.useful_pct", "%"},
	{"prefetch.timely_pct", "%"},
	{"prefetch.self_pct", "%"},
	{"checkpoint.save_pct", "%"},
	{"checkpoint.load_pct", "%"},
	{"checkpoint.bytes", "count"},
	{"checkpoint.fastforward_records", "count"},
	{"harness.cells", "count"},
	{"harness.overhead_pct", "%"},
	{"telemetry.self_pct", "%"},
	{"runtime.gc_cpu_pct", "%"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
}

// sink collects one run's metric values. Every value names the measured
// quantities it was computed from; two metrics computed from the same
// quantities are a benchmark bug (one number reported under two names)
// and are refused.
type sink struct {
	defs map[string]metricDef
	vals map[string]float64
	from map[string]string // provenance key -> metric that used it
	errs []string
}

func newSink(defs []metricDef) *sink {
	s := &sink{defs: map[string]metricDef{}, vals: map[string]float64{}, from: map[string]string{}}
	for _, d := range defs {
		s.defs[d.Name] = d
	}
	return s
}

// put records metric name with value v, computed from the measured
// quantities named in from.
func (s *sink) put(name string, v float64, from ...string) {
	if _, ok := s.defs[name]; !ok {
		s.errs = append(s.errs, fmt.Sprintf("metric %s is not declared", name))
		return
	}
	if _, dup := s.vals[name]; dup {
		s.errs = append(s.errs, fmt.Sprintf("metric %s filled twice", name))
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		s.errs = append(s.errs, fmt.Sprintf("metric %s is %v", name, v))
		return
	}
	if len(from) == 0 {
		s.errs = append(s.errs, fmt.Sprintf("metric %s names no measured quantity", name))
		return
	}
	src := append([]string(nil), from...)
	sort.Strings(src)
	key := strings.Join(src, "+")
	if other, ok := s.from[key]; ok {
		s.errs = append(s.errs, fmt.Sprintf("metrics %s and %s are both filled from %s", other, name, key))
		return
	}
	s.from[key] = name
	s.vals[name] = v
}

// check reports every problem put saw, plus declared metrics never filled.
func (s *sink) check() error {
	errs := append([]string(nil), s.errs...)
	for name := range s.defs {
		if _, ok := s.vals[name]; !ok {
			errs = append(errs, fmt.Sprintf("metric %s was not filled", name))
		}
	}
	if len(errs) == 0 {
		return nil
	}
	sort.Strings(errs)
	return fmt.Errorf("benchmark metrics: %s", strings.Join(errs, "; "))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (s *sink) values() map[string]metricValue {
	out := make(map[string]metricValue, len(s.vals))
	for name, v := range s.vals {
		out[name] = metricValue{Value: v, Unit: s.defs[name].Unit}
	}
	return out
}

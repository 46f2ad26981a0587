// Command perfbench is the simulator's benchmark. It runs one named
// workload from one seed, checks the simulated results, and prints the
// metrics BENCHMARK.json declares as one JSON object on the last line of
// standard output. See README.md for the workloads and metrics.
//
//	go run . -workload memory-bound -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"bingo/internal/benchenv"
	"bingo/internal/system"
)

// hostBlock fingerprints the host a run was measured on.
type hostBlock struct {
	benchenv.Env
	Loadavg string `json:"loadavg"`
}

// outcome is the last line of standard output.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	buildDir string
	// budgetDiv divides every instruction budget (tests run small cells).
	budgetDiv uint64
}

func main() {
	var o options
	var trace int
	names := make([]string, len(benchWorkloads))
	for i, w := range benchWorkloads {
		names[i] = w.name
	}
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's traces are generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "seconds to measure for (at least one pass always runs)")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&o.buildDir, "build-dir", ".bench_build", "directory the traced run writes its span file to")
	flag.Parse()
	if flag.NArg() > 0 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	o.traced = trace == 1
	o.budgetDiv = 1

	host := hostBlock{Env: benchenv.Capture(), Loadavg: loadavg()}
	out, err := run(o, host)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	hb, _ := json.Marshal(map[string]hostBlock{"host": host}) // plain struct: cannot fail
	fmt.Println(string(hb))
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and returns its outcome; err reports a
// usage or benchmark fault, never a failed operation.
func run(o options, host hostBlock) (outcome, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return outcome{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	// The seed drives the trace generators and the first-touch page
	// translation, so it changes the inputs of every workload.
	cfg := w.config()
	cfg = cfg.Scaled(cfg.WarmupInstr/o.budgetDiv, cfg.MeasureInstr/o.budgetDiv)
	cfg.Seed = o.seed
	b := newBench(w, o.seed, cfg)
	start := time.Now()
	if err := b.warmupCell(); err != nil {
		return outcome{}, fmt.Errorf("warm-up cell: %w", err)
	}

	var s *sink
	var err error
	if o.traced {
		s, err = b.tracedRun(o, start, host)
	} else {
		s, err = b.timedRun(o, start)
	}
	if err != nil {
		return outcome{}, err
	}
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "FAIL", f)
	}
	// A failed cell can leave metrics unfilled; only with every cell
	// passing is a missing metric the benchmark's own fault.
	if err := s.check(); err != nil {
		if len(b.failures) == 0 {
			return outcome{}, err
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	printTable(s)
	return outcome{
		Correct:   len(b.failures) == 0,
		Attempted: b.attempts,
		Failed:    len(b.failures),
		Metrics:   s.values(),
	}, nil
}

// timedRun measures set-up, then runs untraced passes for the time
// budget and reports the end-to-end metrics.
func (b *bench) timedRun(o options, start time.Time) (*sink, error) {
	// Set-up: at least three rounds, more while they are cheap.
	var setups []float64
	var setupTotal float64
	for len(setups) < 3 || (setupTotal < 1 && len(setups) < 100) {
		s, err := b.setupRound()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s)
		setupTotal += s
	}

	var passes []*pass
	for {
		t0 := time.Now()
		p, err := b.runPass(false)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		if time.Since(start)+time.Since(t0) > seconds(o.seconds) {
			break
		}
	}

	s := newSink(endToEnd)
	s.put("minstr_per_cpu_s", medianOf(passes, func(p *pass) float64 { return p.eng[system.EngineEvent].rate() }),
		"event.instructions", "event.cell_cpu_s")
	s.put("minstr_per_cpu_s.lockstep", medianOf(passes, func(p *pass) float64 { return p.eng[system.EngineLockstep].rate() }),
		"lockstep.instructions", "lockstep.cell_cpu_s")
	s.put("setup_s", median(setups), "setup.cpu_s")
	s.put("peak_rss_mb", peakRSSMB(), "process.maxrss")
	s.put("alloc_mb", medianOf(passes, func(p *pass) float64 { return float64(p.cellRT.allocBytes) / (1 << 20) }),
		"cells.heap_alloc_bytes")
	speedup, coverage := b.simulated()
	s.put("bingo_speedup", speedup, "results.throughput")
	s.put("bingo_coverage", coverage, "results.llc_misses")
	return s, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// rate is simulated Minstr per CPU second.
func (e engineCost) rate() float64 { return float64(e.instr) / 1e6 / e.cpu }

func medianOf(passes []*pass, f func(*pass) float64) float64 {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = f(p)
	}
	return median(xs)
}

// simulated computes bingo_speedup (geometric mean of system IPC ratios)
// and bingo_coverage (mean Figure 7 coverage, in percent) from the first
// pass's event-engine results. Pairs with a failed cell are left out.
func (b *bench) simulated() (speedup, coverage float64) {
	var logSum, covSum, n float64
	for _, pr := range b.speedupPairs() {
		base, ok1 := b.ref[runKey(pr[0], system.EngineEvent)]
		res, ok2 := b.ref[runKey(pr[1], system.EngineEvent)]
		if !ok1 || !ok2 {
			continue
		}
		logSum += math.Log(res.Throughput() / base.Throughput())
		covSum += res.CoverageVsBaseline(base.LLC.Misses)
		n++
	}
	return math.Exp(logSum / n), 100 * covSum / n
}

// tracedRun alternates untraced and traced passes for the time budget
// and reports the per-layer metrics. The untraced passes give the
// tracing overhead and the reference results the traced passes must
// reproduce.
func (b *bench) tracedRun(o options, start time.Time, host hostBlock) (*sink, error) {
	tr := newTracer()
	var plain, traced []*pass
	for {
		t0 := time.Now()
		p, err := b.runPass(false)
		if err != nil {
			return nil, err
		}
		plain = append(plain, p)
		b.tr = tr
		p, err = b.runPass(true)
		b.tr = nil
		if err != nil {
			return nil, err
		}
		traced = append(traced, p)
		if time.Since(start)+time.Since(t0) > seconds(o.seconds) {
			break
		}
	}
	if err := os.MkdirAll(o.buildDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(o.buildDir, fmt.Sprintf("perfbench-spans-%s-seed%d.json", b.w.name, b.seed))
	if err := tr.writeChromeTrace(path, host); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintln(os.Stderr, "spans written to", path)
	return b.layerMetrics(plain, traced), nil
}

// layerMetrics fills the per-layer metrics. Times are medians over the
// traced passes; counts come from the simulated results of the first
// traced pass's event-engine runs (every pass repeats them exactly) and
// from the wrappers, which count every run of the pass.
func (b *bench) layerMetrics(plain, traced []*pass) *sink {
	s := newSink(perLayer)
	s.put("wall_s", medianOf(plain, func(p *pass) float64 { return p.wall }), "untraced.cells.wall_s")
	p := traced[0]
	ev := p.eng[system.EngineEvent]
	secs := func(name string) float64 {
		return medianOf(traced, func(p *pass) float64 { return p.phase[name].Seconds() })
	}
	wallPct := func(name string) float64 {
		return medianOf(traced, func(p *pass) float64 { return 100 * p.phase[name].Seconds() / p.wall })
	}

	var sum resultSums
	for key, res := range p.results {
		if strings.HasSuffix(key, "|"+system.EngineEvent.String()) {
			sum.add(res)
		}
	}

	s.put("workloads.build_s", secs("sources"), "span.sources")
	s.put("workloads.build_alloc_mb", float64(p.phaseAlloc["sources"])/(1<<20), "span.sources.alloc")
	s.put("workloads.records", float64(p.records), "next.calls")
	s.put("workloads.next_ns", medianOf(traced, func(p *pass) float64 { return float64(p.nextNS) }), "next.ns")
	s.put("system.new_s", secs("new"), "span.new")
	s.put("system.warmup_s", secs("warmup"), "span.warmup")
	s.put("system.measure_s", secs("measure"), "span.measure")
	s.put("system.cycles", float64(ev.cycles), "event.cycles")
	s.put("system.advances", float64(ev.advances), "event.advances")
	s.put("system.skipped_pct", pct(ev.skipped, ev.cycles), "event.skipped", "event.cycles")
	s.put("system.ns_per_cycle.lockstep", medianOf(traced, func(p *pass) float64 {
		e := p.eng[system.EngineLockstep]
		return e.loopCPU * 1e9 / float64(e.cycles)
	}), "lockstep.loop_cpu_s", "lockstep.cycles")
	s.put("system.ns_per_advance", medianOf(traced, func(p *pass) float64 {
		e := p.eng[system.EngineEvent]
		return e.loopCPU * 1e9 / float64(e.advances)
	}), "event.loop_cpu_s", "event.advances")
	s.put("cpu.instructions", float64(sum.instr), "results.window_instructions")
	s.put("cpu.mem_stall_cycles", float64(sum.memStall), "results.mem_stall")
	s.put("cache.l1.accesses", float64(sum.l1Accesses), "results.l1.accesses")
	s.put("cache.l1.misses", float64(sum.l1Misses), "results.l1.misses")
	s.put("cache.llc.accesses", float64(sum.llcAccesses), "results.llc.accesses")
	s.put("cache.llc.misses", float64(sum.llcMisses), "results.llc.misses")
	s.put("cache.llc.mpki", 1000*float64(sum.llcMisses)/float64(sum.instr), "results.llc.misses", "results.window_instructions")
	s.put("dram.reads", float64(sum.dramReads), "results.dram.reads")
	s.put("dram.row_hit_pct", pct(sum.rowHits, sum.rowAccesses), "results.dram.row_hits", "results.dram.activations")
	s.put("prefetch.on_access.calls", float64(p.pf.access), "on_access.calls")
	s.put("prefetch.on_access.ns", medianOf(traced, func(p *pass) float64 { return float64(p.pf.accessNS) }), "on_access.ns")
	s.put("prefetch.on_eviction.calls", float64(p.pf.eviction), "on_eviction.calls")
	s.put("prefetch.on_eviction.ns", medianOf(traced, func(p *pass) float64 { return float64(p.pf.evictionNS) }), "on_eviction.ns")
	s.put("prefetch.predicted", float64(sum.lc.Issued), "lifecycle.predicted")
	s.put("prefetch.issued", float64(sum.lc.Issued-sum.lc.QueueDropped), "lifecycle.predicted", "lifecycle.queue_dropped")
	s.put("prefetch.dropped", float64(sum.lc.QueueDropped), "lifecycle.queue_dropped")
	s.put("prefetch.useful_pct", pct(sum.lc.Used(), sum.lc.Fills), "lifecycle.used", "lifecycle.fills")
	s.put("prefetch.timely_pct", pct(sum.lc.Timely, sum.lc.Fills), "lifecycle.timely", "lifecycle.fills")
	s.put("checkpoint.save_pct", wallPct("save"), "span.save", "cells.wall_s")
	s.put("checkpoint.load_pct", wallPct("load"), "span.load", "cells.wall_s")
	s.put("checkpoint.bytes", float64(p.ckptBytes), "checkpoint.bytes")
	s.put("checkpoint.fastforward_records", float64(p.ffRecords), "load.next.calls")
	s.put("harness.cells", float64(plain[0].harnessCells), "matrix.runs")
	s.put("harness.overhead_pct", medianOf(plain, func(p *pass) float64 { return 100 * p.harnessOverhead / p.wall }),
		"matrix.call_s", "matrix.cell_s", "untraced.cells.wall_s")

	profile := map[string]int64{}
	var total int64
	for _, p := range traced {
		for k, v := range p.profile {
			profile[k] += v
			total += v
		}
	}
	for _, layer := range selfPctLayers {
		s.put(layer+".self_pct", 100*float64(profile[layer])/float64(max(total, 1)), "profile."+layer)
	}

	var gcCPU, cellCPU float64
	for _, p := range traced {
		gcCPU += p.cellRT.gcCPU
		cellCPU += p.eng[system.EngineLockstep].cpu + p.eng[system.EngineEvent].cpu
	}
	s.put("runtime.gc_cpu_pct", 100*gcCPU/cellCPU, "runtime.gc_cpu_s", "traced.cell_cpu_s")
	s.put("runtime.gc_cycles", float64(p.cellRT.gcCycles), "runtime.gc_cycles")

	plainRate := medianOf(plain, func(p *pass) float64 { return p.eng[system.EngineEvent].rate() })
	tracedRate := medianOf(traced, func(p *pass) float64 { return p.eng[system.EngineEvent].rate() })
	s.put("trace.overhead_pct", 100*(plainRate-tracedRate)/plainRate, "event.instructions", "event.cell_cpu_s", "traced.event.cell_cpu_s")
	return s
}

func pct(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

// printTable writes the metrics, one per line, to standard error.
func printTable(s *sink) {
	names := make([]string, 0, len(s.vals))
	for n := range s.vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-32s %16.6g %s\n", n, s.vals[n], s.defs[n].Unit)
	}
}

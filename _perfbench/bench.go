package main

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"bingo/internal/harness"
	"bingo/internal/prefetch"
	"bingo/internal/system"
	"bingo/internal/telemetry"
	"bingo/internal/workloads"
)

// kind is how a workload runs its cells.
type kind int

const (
	// kindPairs runs every cell under both engines and compares results.
	kindPairs kind = iota
	// kindMatrix runs the table2/fig7/fig8 plan through harness.Matrix
	// under the event engine, plus its no-prefetcher cells under
	// lockstep.
	kindMatrix
	// kindRestore runs every cell cold under lockstep, saving a checkpoint
	// at the end of warm-up, then restores that checkpoint into a fresh
	// system and runs the measurement under the event engine.
	kindRestore
)

// benchWorkload is one named workload of the benchmark.
type benchWorkload struct {
	name, why string
	kind      kind
	traces    []string // workload Spec names; kindMatrix uses all ten
	pfs       []string // kindPairs, kindRestore
	seeds     int      // trace seeds per cell, counting up from -seed
	config    func() system.Config
}

// matrixExperiments are the experiments whose cells kindMatrix runs.
var matrixExperiments = []string{"table2", "fig7", "fig8"}

func tableI() system.Config { return system.DefaultConfig() }

func fastBudget() system.Config { return harness.FastRunOptions().System }

// warmStart keeps Table I's warm-up and shortens the measurement, as a
// sweep that warm-starts many short measurements from one saved warm-up
// does; the restore path is then a large share of each cell.
func warmStart() system.Config {
	cfg := system.DefaultConfig()
	return cfg.Scaled(cfg.WarmupInstr, cfg.WarmupInstr/3)
}

var benchWorkloads = []benchWorkload{
	{
		name:   "memory-bound",
		why:    "em3d and DataServing at the Table I budget: LLC MPKI 6-28, the event engine skips most cycles, the driver loop and the miss path dominate",
		kind:   kindPairs,
		traces: []string{"em3d", "DataServing"},
		pfs:    []string{"none", "bingo"},
		seeds:  1,
		config: tableI,
	},
	{
		name:   "compute-mix",
		why:    "SPEC Mix1 at the Table I budget: IPC 3-6, time goes to per-instruction work in cpu, the L1 and Bingo training",
		kind:   kindPairs,
		traces: []string{"Mix1"},
		pfs:    []string{"none", "bingo"},
		seeds:  1,
		config: tableI,
	},
	{
		name:   "paper-matrix",
		why:    "the 70 table2/fig7/fig8 cells at the -fast budget through harness.Matrix: all six paper prefetchers, small budgets, set-up heavy",
		kind:   kindMatrix,
		seeds:  1,
		config: fastBudget,
	},
	{
		name:   "warm-restore",
		why:    "Zeus and Streaming saved after a Table I warm-up, restored and measured for 500K instructions: the only checkpoint save, load and fast-forward",
		kind:   kindRestore,
		traces: []string{"Zeus", "Streaming"},
		pfs:    []string{"none", "bingo"},
		seeds:  2,
		config: warmStart,
	},
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// cellID names one simulated (trace, prefetcher, seed) cell.
type cellID struct {
	trace, pf string
	seed      int64
}

func (c cellID) String() string { return fmt.Sprintf("%s/%s@%d", c.trace, c.pf, c.seed) }

// resolve looks up the cell's workload and builds a fresh prefetcher
// factory for it.
func (c cellID) resolve() (workloads.Spec, prefetch.Factory, error) {
	spec, ok := workloads.ByName(c.trace)
	if !ok {
		return workloads.Spec{}, nil, fmt.Errorf("unknown workload %q", c.trace)
	}
	factory, err := harness.FactoryByName(c.pf)
	return spec, factory, err
}

// runKey names one engine's run of a cell.
func runKey(c cellID, eng system.Engine) string { return c.String() + "|" + eng.String() }

// engineCost sums what one engine's runs in a pass simulated and cost.
type engineCost struct {
	instr    uint64  // measured-window instructions, all cores
	cpu      float64 // CPU seconds of the whole cells
	loopCPU  float64 // CPU seconds in RunWarmup and Run
	cycles   uint64  // simulated cycles
	advances uint64  // clock advances (event engine)
	skipped  uint64  // cycles jumped over (event engine)
}

// pass is everything one pass over a workload's cells measured.
type pass struct {
	traced  bool
	wall    float64       // summed wall time of the cells
	eng     [2]engineCost // indexed by system.Engine
	cellRT  runtimeCounters
	results map[string]system.Results // by runKey

	harnessCells    int
	harnessOverhead float64 // seconds inside Matrix calls outside simulations
	ckptBytes       uint64
	ffRecords       uint64 // trace records replayed by restores

	// Traced passes only.
	phase      map[string]time.Duration
	phaseAlloc map[string]uint64
	records    uint64
	nextNS     int64
	pf         pfCalls
	profile    map[string]int64
}

// bench runs one workload from one seed.
type bench struct {
	w    benchWorkload
	seed int64
	cfg  system.Config
	tr   *tracer // set while a traced pass runs

	ref      map[string]system.Results // results of the first pass
	attempts int
	failures []string
}

func newBench(w benchWorkload, seed int64, cfg system.Config) *bench {
	return &bench{w: w, seed: seed, cfg: cfg, ref: map[string]system.Results{}}
}

// cells lists the workload's (trace, prefetcher, seed) cells in run order.
func (b *bench) cells() []cellID {
	var out []cellID
	if b.w.kind == kindMatrix {
		m := harness.NewMatrix(b.matrixOptions(system.EngineEvent))
		for _, pc := range harness.PlanExperiments(matrixExperiments, m) {
			out = append(out, cellID{pc.Key.Workload, pc.Key.Prefetcher, b.seed})
		}
		return out
	}
	for s := 0; s < b.w.seeds; s++ {
		for _, t := range b.w.traces {
			for _, pf := range b.w.pfs {
				out = append(out, cellID{t, pf, b.seed + int64(s)})
			}
		}
	}
	return out
}

// speedupPairs lists the (none, bingo) cell pairs bingo_speedup and
// bingo_coverage average over.
func (b *bench) speedupPairs() [][2]cellID {
	var out [][2]cellID
	for _, c := range b.cells() {
		if c.pf == "bingo" {
			out = append(out, [2]cellID{{c.trace, "none", c.seed}, c})
		}
	}
	return out
}

func (b *bench) matrixOptions(e system.Engine) harness.RunOptions {
	return harness.RunOptions{System: b.cfg, Seed: b.seed, Engine: e}
}

// op runs one operation, counting it as failed when fn reports an error.
func (b *bench) op(name string, fn func() error) {
	b.attempts++
	if err := fn(); err != nil {
		b.failures = append(b.failures, fmt.Sprintf("%s: %v", name, err))
	}
}

// checkResult applies the checks every run's results must pass: the
// budget was reached, the prefetch lifecycle conserves, and the results
// equal those of the same run in the first pass (which is untraced, so
// later traced passes are held to it too).
func (b *bench) checkResult(p *pass, key string, res system.Results) error {
	p.results[key] = res
	for i, c := range res.PerCore {
		if c.Instructions < b.cfg.MeasureInstr {
			return fmt.Errorf("%s: core %d retired %d of %d measured instructions", key, i, c.Instructions, b.cfg.MeasureInstr)
		}
	}
	if res.PrefetcherName != "none" {
		if !res.Timeliness.Conserves() {
			return fmt.Errorf("%s: prefetch lifecycle does not conserve: %+v", key, res.Timeliness)
		}
		if res.Timeliness.QueueDropped != res.PrefetchDropped {
			return fmt.Errorf("%s: lifecycle counts %d queue drops, results %d", key, res.Timeliness.QueueDropped, res.PrefetchDropped)
		}
	}
	if ref, ok := b.ref[key]; ok {
		if !reflect.DeepEqual(ref, res) {
			what := "an earlier pass"
			if p.traced {
				what = "the untraced pass"
			}
			return fmt.Errorf("%s: results differ from %s", key, what)
		}
	} else {
		b.ref[key] = res
	}
	return nil
}

func sameResults(a, b system.Results, what string) error {
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("%s results differ", what)
	}
	return nil
}

// cellRun is one simulated run of a cell in progress.
type cellRun struct {
	b    *bench
	p    *pass
	eng  system.Engine
	t0   time.Time
	cpu0 float64
	rt0  runtimeCounters
	sys  *system.System
	end  func()
}

// start begins a timed run. Garbage from earlier cells is collected and
// its memory returned to the OS first, so no cell pays for another's
// garbage and each starts from the same heap.
func (b *bench) start(p *pass, name string, eng system.Engine) *cellRun {
	debug.FreeOSMemory()
	r := &cellRun{b: b, p: p, eng: eng, end: b.tr.begin(name)}
	r.rt0 = readRuntime()
	r.t0 = time.Now()
	r.cpu0 = cpuSeconds()
	return r
}

// build assembles the cell's system: trace sources and system.New.
func (r *cellRun) build(c cellID) error {
	spec, factory, err := c.resolve()
	if err != nil {
		return err
	}
	tr := r.b.tr
	end := tr.begin("sources")
	srcs := spec.Sources(r.b.cfg.NumCores, c.seed)
	end()
	end = tr.begin("new")
	r.sys, err = system.New(r.b.cfg, tr.sources(srcs), tr.factory(factory))
	end()
	if err != nil {
		return err
	}
	r.sys.SetEngine(r.eng)
	return nil
}

func (r *cellRun) phase(name string, fn func()) {
	end := r.b.tr.begin(name)
	fn()
	end()
}

// loop runs a simulation phase (warm-up or measurement), booking its CPU
// time to the engine's simulation loop.
func (r *cellRun) loop(name string, fn func()) {
	cpu0 := cpuSeconds()
	r.phase(name, fn)
	r.p.eng[r.eng].loopCPU += cpuSeconds() - cpu0
}

// finish stops the clock and books the run's cost to its engine.
func (r *cellRun) finish(res system.Results, startCycle uint64) {
	cpu := cpuSeconds() - r.cpu0
	r.p.wall += time.Since(r.t0).Seconds()
	rt := readRuntime().sub(r.rt0)
	r.end()
	e := &r.p.eng[r.eng]
	e.instr += res.WindowInstructions
	e.cpu += cpu
	if r.sys != nil {
		e.cycles += r.sys.Clock() - startCycle
		st := r.sys.EngineStats()
		e.advances += st.Advances
		e.skipped += st.SkippedCycles
	}
	r.p.cellRT.allocBytes += rt.allocBytes
	r.p.cellRT.gcCycles += rt.gcCycles
	r.p.cellRT.gcCPU += rt.gcCPU
}

// simulate runs cell c from construction to results under eng.
func (b *bench) simulate(p *pass, c cellID, eng system.Engine) (system.Results, error) {
	r := b.start(p, runKey(c, eng), eng)
	if err := r.build(c); err != nil {
		r.finish(system.Results{}, 0)
		return system.Results{}, err
	}
	var res system.Results
	r.loop("warmup", r.sys.RunWarmup)
	r.loop("measure", func() { res = r.sys.Run() })
	r.finish(res, 0)
	return res, nil
}

// runPass runs every cell of the workload once.
func (b *bench) runPass(traced bool) (*pass, error) {
	p := &pass{traced: traced, results: map[string]system.Results{}}
	var prof bytes.Buffer
	if traced {
		b.tr.resetPass()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	end := b.tr.begin(b.w.name)
	switch b.w.kind {
	case kindPairs:
		b.pairsPass(p)
	case kindMatrix:
		b.matrixPass(p)
	case kindRestore:
		b.restorePass(p)
	}
	end()
	if traced {
		pprof.StopCPUProfile()
		buckets, err := bucketProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		p.profile = buckets
		p.phase, p.phaseAlloc = b.tr.phase, b.tr.phaseAlloc
		p.records, p.nextNS, p.pf = b.tr.records, b.tr.nextNS, b.tr.pf
	}
	return p, nil
}

func (b *bench) pairsPass(p *pass) {
	for _, c := range b.cells() {
		b.op(c.String(), func() error {
			ev, err := b.simulate(p, c, system.EngineEvent)
			if err != nil {
				return err
			}
			ls, err := b.simulate(p, c, system.EngineLockstep)
			if err != nil {
				return err
			}
			if err := sameResults(ev, ls, "lockstep and event"); err != nil {
				return err
			}
			if err := b.checkResult(p, runKey(c, system.EngineEvent), ev); err != nil {
				return err
			}
			return b.checkResult(p, runKey(c, system.EngineLockstep), ls)
		})
	}
}

// lockstepInMatrix reports whether a matrix cell is also run under
// lockstep: the no-prefetcher cells of Table II.
func lockstepInMatrix(c cellID) bool { return c.pf == "none" }

// matrixPass runs the plan one cell at a time: through harness.Matrix,
// the path the experiments command takes, or, in a traced pass, directly,
// because the matrix builds its trace sources where no wrapper can reach
// them. checkResult holds the direct runs to the harness pass's results.
func (b *bench) matrixPass(p *pass) {
	var inCalls float64
	var matrices []*harness.Matrix
	for _, eng := range []system.Engine{system.EngineEvent, system.EngineLockstep} {
		m := harness.NewMatrix(b.matrixOptions(eng))
		matrices = append(matrices, m)
		for _, c := range b.cells() {
			if eng == system.EngineLockstep && !lockstepInMatrix(c) {
				continue
			}
			b.op(runKey(c, eng), func() error {
				var res system.Results
				var err error
				if p.traced {
					res, err = b.simulate(p, c, eng)
				} else {
					r := b.start(p, runKey(c, eng), eng)
					t0 := time.Now()
					res, _, err = m.ExecuteCell(harness.CellKey{Workload: c.trace, Prefetcher: c.pf}, m.Options())
					inCalls += time.Since(t0).Seconds()
					r.finish(res, 0)
				}
				if err != nil {
					return err
				}
				if eng == system.EngineLockstep {
					if err := sameResults(p.results[runKey(c, system.EngineEvent)], res, "lockstep and event"); err != nil {
						return err
					}
				}
				return b.checkResult(p, runKey(c, eng), res)
			})
		}
	}
	var simulated time.Duration
	for _, m := range matrices {
		for _, st := range m.Stats() {
			simulated += st.Duration
		}
		p.harnessCells += m.Runs()
	}
	p.harnessOverhead = inCalls - simulated.Seconds()
}

func (b *bench) restorePass(p *pass) {
	for _, c := range b.cells() {
		b.op(c.String(), func() error {
			// Cold: warm up under lockstep, save, measure.
			r := b.start(p, c.String()+"|cold", system.EngineLockstep)
			if err := r.build(c); err != nil {
				r.finish(system.Results{}, 0)
				return err
			}
			var ckpt bytes.Buffer
			var saveErr error
			var cold system.Results
			r.loop("warmup", r.sys.RunWarmup)
			r.phase("save", func() { saveErr = r.sys.SaveCheckpoint(&ckpt) })
			if saveErr == nil {
				r.loop("measure", func() { cold = r.sys.Run() })
			}
			r.finish(cold, 0)
			if saveErr != nil {
				return fmt.Errorf("save: %w", saveErr)
			}
			p.ckptBytes += uint64(ckpt.Len())

			// Warm: restore into a fresh system, measure under event.
			w := b.start(p, c.String()+"|restored", system.EngineEvent)
			if err := w.build(c); err != nil {
				w.finish(system.Results{}, 0)
				return err
			}
			var loadErr error
			var warm system.Results
			records := b.tr.recordCount()
			w.phase("load", func() { loadErr = w.sys.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())) })
			p.ffRecords += b.tr.recordCount() - records
			start := w.sys.Clock()
			if loadErr == nil {
				w.loop("measure", func() { warm = w.sys.Run() })
			}
			w.finish(warm, start)
			if loadErr != nil {
				return fmt.Errorf("load: %w", loadErr)
			}
			if err := sameResults(cold, warm, "cold and restored"); err != nil {
				return err
			}
			if err := b.checkResult(p, runKey(c, system.EngineLockstep), cold); err != nil {
				return err
			}
			return b.checkResult(p, runKey(c, system.EngineEvent), warm)
		})
	}
}

// setupRound builds the system of every cell of the workload once,
// without running it, and returns the CPU seconds spent in the lookups,
// Sources and system.New.
func (b *bench) setupRound() (float64, error) {
	var total float64
	for _, c := range b.cells() {
		debug.FreeOSMemory()
		t0 := cpuSeconds()
		spec, factory, err := c.resolve()
		if err == nil {
			_, err = system.New(b.cfg, spec.Sources(b.cfg.NumCores, c.seed), factory)
		}
		total += cpuSeconds() - t0
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// warmupCell runs the workload's first cell once at a tenth of the
// budget, untimed, so code, heap and caches are warm before timing.
func (b *bench) warmupCell() error {
	small := newBench(b.w, b.seed, b.cfg.Scaled(b.cfg.WarmupInstr/10, max(b.cfg.MeasureInstr/10, 1)))
	_, err := small.simulate(&pass{results: map[string]system.Results{}}, b.cells()[0], system.EngineEvent)
	return err
}

// resultSums adds up the simulated counters of a set of runs.
type resultSums struct {
	instr, memStall                              uint64
	l1Accesses, l1Misses, llcAccesses, llcMisses uint64
	dramReads, rowHits, rowAccesses              uint64
	lc                                           telemetry.LifecycleStats
}

func (s *resultSums) add(r system.Results) {
	s.instr += r.WindowInstructions
	for _, c := range r.PerCore {
		s.memStall += c.MemStall
	}
	for _, l1 := range r.L1 {
		s.l1Accesses += l1.Accesses
		s.l1Misses += l1.Misses
	}
	s.llcAccesses += r.LLC.Accesses
	s.llcMisses += r.LLC.Misses
	s.dramReads += r.DRAM.Reads
	s.rowHits += r.DRAM.RowHits
	s.rowAccesses += r.DRAM.RowHits + r.DRAM.RowEmpty + r.DRAM.RowConflicts
	s.lc = s.lc.Add(r.Timeliness)
}

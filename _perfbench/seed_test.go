package main

import (
	"testing"

	"bingo/internal/trace"
	"bingo/internal/workloads"
)

// exact lists the metrics a seed fixes exactly: simulated results and
// counts, as opposed to host timings.
func exact(out outcome) map[string]float64 {
	m := map[string]float64{}
	for name, v := range out.Metrics {
		switch {
		case v.Unit == "count" && name != "runtime.gc_cycles",
			v.Unit == "misses/kinstr",
			name == "bingo_speedup", name == "bingo_coverage",
			name == "system.skipped_pct", name == "dram.row_hit_pct",
			name == "prefetch.useful_pct", name == "prefetch.timely_pct":
			m[name] = v.Value
		}
	}
	return m
}

// TestSameSeedReproducesCounts runs a workload twice from one seed: every
// simulated metric and count must repeat exactly.
func TestSameSeedReproducesCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload four times at reduced budgets")
	}
	for _, traced := range []bool{false, true} {
		a := exact(runSmall(t, "memory-bound", 7, traced))
		b := exact(runSmall(t, "memory-bound", 7, traced))
		if len(a) == 0 {
			t.Fatalf("traced=%v: no exact metrics reported", traced)
		}
		for name, v := range a {
			if b[name] != v {
				t.Errorf("traced=%v: %s read %v, then %v from the same seed", traced, name, v, b[name])
			}
		}
	}
}

// TestSeedChangesTraces checks the seed reaches the traces of every
// workload, and through them the simulated counts. Some generators
// ignore the seed by design (em3d's graph is a fixed function of node
// ids; the SPEC streaming kernels replay their arrays), so a workload
// needs only one trace on one core that differs.
func TestSeedChangesTraces(t *testing.T) {
	for _, w := range benchWorkloads {
		names := w.traces
		if w.kind == kindMatrix {
			names = workloads.Names()
		}
		differs := false
		for _, name := range names {
			spec, ok := workloads.ByName(name)
			if !ok {
				t.Fatalf("unknown workload %s", name)
			}
			a, b := spec.Sources(4, 1), spec.Sources(4, 2)
			for i := range a {
				differs = differs || !samePrefix(a[i], b[i], 4096)
			}
		}
		if !differs {
			t.Errorf("%s: seeds 1 and 2 give the same traces", w.name)
		}
	}

	if testing.Short() {
		return
	}
	a, b := exact(runSmall(t, "memory-bound", 1, true)), exact(runSmall(t, "memory-bound", 2, true))
	if a["cpu.instructions"] == b["cpu.instructions"] && a["cache.llc.misses"] == b["cache.llc.misses"] {
		t.Errorf("seeds 1 and 2 simulate identical instruction and LLC miss counts")
	}
}

func samePrefix(a, b trace.Source, n int) bool {
	for i := 0; i < n; i++ {
		ra, oka := a.Next()
		rb, okb := b.Next()
		if ra != rb || oka != okb {
			return false
		}
	}
	return true
}

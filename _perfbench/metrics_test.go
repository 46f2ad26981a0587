package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"bingo/internal/benchenv"
)

var (
	metricName  = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, metricName)
		}
		if !unitPattern.MatchString(d.Unit) {
			t.Errorf("metric %s has unit %q, want one matching %s", d.Name, d.Unit, unitPattern)
		}
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json, which the
// benchmark's runner reads, in step with the metrics and workloads this
// program reports.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(benchWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(doc.Workloads), len(benchWorkloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != benchWorkloads[i].name || w.Why != benchWorkloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, benchWorkloads[i].name, benchWorkloads[i].why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end_to_end %d: BENCHMARK.json has %s [%s], the program %s [%s]", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("end_to_end %s: better is %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per_layer %d: BENCHMARK.json has %s [%s], the program %s [%s]", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per_layer %s: better is %q", m.Name, m.Better)
		}
	}
}

func TestSinkRefusesSharedProvenance(t *testing.T) {
	s := newSink([]metricDef{{"a", "s"}, {"b", "s"}})
	s.put("a", 1, "x.cpu", "x.instr")
	s.put("b", 2, "x.instr", "x.cpu")
	if err := s.check(); err == nil || !strings.Contains(err.Error(), "both filled from") {
		t.Fatalf("check() = %v, want a shared-provenance error", err)
	}
}

// runSmall runs a workload at a fiftieth of its budgets for one pass.
func runSmall(t *testing.T, workload string, seed int64, traced bool) outcome {
	t.Helper()
	o := options{workload: workload, seed: seed, traced: traced, buildDir: t.TempDir(), budgetDiv: 50}
	out, err := run(o, hostBlock{Env: benchenv.Capture()})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, out.Correct, out.Attempted, out.Failed)
	}
	return out
}

// TestEveryWorkloadFillsEveryMetric runs every workload in both modes and
// checks each reports exactly its declared metrics, and that no two
// timing metrics carry the same value: one measured number reported
// under two names (both engines' throughput from one timer, say) would.
func TestEveryWorkloadFillsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at reduced budgets")
	}
	timing := map[string]bool{"s": true, "ns": true, "Minstr/s": true}
	for _, w := range benchWorkloads {
		for _, traced := range []bool{false, true} {
			out := runSmall(t, w.name, 1, traced)
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(out.Metrics), len(defs))
			}
			byValue := map[float64]string{}
			var names []string
			for name := range out.Metrics {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				m := out.Metrics[name]
				if !timing[m.Unit] || m.Value == 0 {
					continue
				}
				if other, ok := byValue[m.Value]; ok {
					t.Errorf("%s traced=%v: %s and %s both read %v", w.name, traced, other, name, m.Value)
				}
				byValue[m.Value] = name
			}
			// Host measurements are never 0. (The simulated bingo_* metrics
			// can be at a fiftieth of the budget, before Bingo has learned.)
			for _, d := range endToEnd {
				if m, ok := out.Metrics[d.Name]; ok && m.Value == 0 && !strings.HasPrefix(d.Name, "bingo_") {
					t.Errorf("%s: end-to-end metric %s reads 0", w.name, d.Name)
				}
			}
		}
	}
}

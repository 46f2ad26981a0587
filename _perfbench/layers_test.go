package main

import (
	"bytes"
	"os/exec"
	"runtime/pprof"
	"strings"
	"testing"

	"bingo/internal/harness"
	"bingo/internal/system"
	"bingo/internal/workloads"
)

// helperPackages are charged to their caller's layer (see layerOfPackage);
// notSimulated are linked but run no simulation code.
var (
	helperPackages = map[string]bool{"bingo/internal/mem": true, "bingo/internal/san": true}
	notSimulated   = map[string]bool{"bingo/internal/benchenv": true}
)

// TestEverySimulatedPackageHasALayer fails when a bingo/internal package
// the benchmark links maps to no layer, so its profile samples would be
// charged to a caller's layer unnoticed. A new package must be added to
// layerOfPackage, helperPackages or notSimulated.
func TestEverySimulatedPackageHasALayer(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "-f", "{{.ImportPath}}", ".").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	deps := map[string]bool{}
	for _, pkg := range strings.Fields(string(out)) {
		if !strings.HasPrefix(pkg, "bingo/internal/") {
			continue
		}
		deps[pkg] = true
		if layerOf(pkg) == "" && !helperPackages[pkg] && !notSimulated[pkg] {
			t.Errorf("package %s maps to no layer", pkg)
		}
	}
	for pkg := range layerOfPackage {
		if !deps[pkg] {
			t.Errorf("layer map names %s, which the benchmark does not link", pkg)
		}
	}
	for _, l := range selfPctLayers {
		found := false
		for _, v := range layerOfPackage {
			found = found || v == l
		}
		if !found {
			t.Errorf("self_pct layer %s has no package", l)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"bingo/internal/cache.(*Cache).Access":                         "bingo/internal/cache",
		"bingo/internal/system.(*System).runUntilMark.func1":           "bingo/internal/system",
		"bingo/internal/prefetch.(*Table[go.shape.uint64]).Lookup":     "bingo/internal/prefetch",
		"bingo/internal/prefetch.NewTable[go.shape.*bingo/internal/x]": "bingo/internal/prefetch",
		"bingo/internal/prefetchers/sms.(*SMS).OnAccess":               "bingo/internal/prefetchers/sms",
		"runtime.mallocgc":         "runtime",
		"main.(*timedSource).Next": "main",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memmove", "bingo/internal/cache.(*Cache).fill", "bingo/internal/system.(*System).Run"}, "cache"},
		{[]string{"bingo/internal/mem.Mix64", "bingo/internal/prefetch.EventKind.Key", "bingo/internal/core.(*Bingo).OnAccess"}, "prefetch"},
		{[]string{"bingo/internal/prefetchers/bop.(*BOP).OnAccess"}, "prefetch"},
		{[]string{"time.Now", "main.(*timedSource).Next", "bingo/internal/cpu.(*Core).fetch"}, bucketBench},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "bingo/internal/workloads.newZeus"}, bucketGC},
		{[]string{"runtime.futex", "runtime.schedule"}, bucketOther},
	} {
		if got := bucketOf(tc.frames); got != tc.want {
			t.Errorf("bucketOf(%v) = %q, want %q", tc.frames, got, tc.want)
		}
	}
}

// TestProfileBucketsRealProfile decodes a real runtime/pprof CPU profile
// of a short simulation and checks the hot layers receive samples.
func TestProfileBucketsRealProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles a simulation for about a second")
	}
	spec, _ := workloads.ByName("em3d")
	factory, err := harness.FactoryByName("bingo")
	if err != nil {
		t.Fatal(err)
	}
	cfg := system.DefaultConfig().Scaled(100_000, 400_000)
	sys, err := system.New(cfg, spec.Sources(cfg.NumCores, 1), factory)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	pprof.StopCPUProfile()
	buckets, err := bucketProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range buckets {
		total += v
	}
	if total == 0 {
		t.Fatal("profile holds no samples")
	}
	for _, layer := range []string{"system", "cpu", "cache"} {
		if buckets[layer] == 0 {
			t.Errorf("layer %s got no samples: %v", layer, buckets)
		}
	}
}

package contractlint_test

import (
	"path/filepath"
	"testing"

	"bingo/internal/lint/analysis"
	"bingo/internal/lint/analysistest"
	"bingo/internal/lint/contractlint"
)

// TestContractlint runs the fixture with its dep subpackage, so a lock
// embedded from another package must be found by the structural walk.
func TestContractlint(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "lint", "testdata", "src", "contractlint")
	diags := analysistest.RunConfig(t, root, dir, "bingo/internal/harnessfixture", contractlint.Analyzer, analysistest.Config{
		Deps: map[string]string{"bingo/internal/harnessfixture/dep": filepath.Join(dir, "dep")},
	})
	if len(diags) == 0 {
		t.Fatal("fixture seeded violations but contractlint reported nothing")
	}
}

// TestScopeIsHarnessAndSystemOnly loads the same fixture under a
// non-concurrent package path; contractlint must stay silent there.
func TestScopeIsHarnessAndSystemOnly(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "lint", "testdata", "src", "contractlint")
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	loader.Override("bingo/internal/cachefixture", dir)
	loader.Override("bingo/internal/harnessfixture/dep", filepath.Join(dir, "dep"))
	pkg, err := loader.Load("bingo/internal/cachefixture")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(pkg, []*analysis.Analyzer{contractlint.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("contractlint reported %d diagnostics outside harness/system", len(diags))
	}
}

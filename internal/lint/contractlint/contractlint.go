// Package contractlint enforces the documentation half of the
// concurrency contracts in the packages that actually run goroutines:
// internal/harness (the parallel experiment engine) and internal/system
// (the simulated machine the engine runs many instances of concurrently).
// Two rules:
//
//  1. Exported package-level vars are shared mutable state by default, so
//     their doc comment must state the contract — that they are immutable
//     / read-only after init, or which lock guards them. (Findings are
//     fixed by writing the contract down, which is the point.)
//
//  2. Exported types whose struct carries a lock (sync.Mutex, RWMutex,
//     WaitGroup, Once, sync.Map, any sync/atomic type — directly or via
//     an embedded value, including one imported from another package)
//     must likewise document their concurrency contract.
//
// Whether a type carries a lock is decided by walking its structure. The
// loader type-checks every module package from source, so the walk sees
// through named types from other packages too, and a harness type that
// embeds a mutex-bearing type from elsewhere in the module is caught.
// By-value copies of lock-bearing values are go vet's copylocks check,
// which `make lint` and CI run alongside this suite.
//
// A doc comment "states a contract" when it mentions concurrency
// vocabulary: "concurren*", "goroutine", "mutex", "lock", "immutable",
// "read-only"/"read only", "not safe", or "must not be mutated".
package contractlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"bingo/internal/lint/analysis"
)

// Analyzer enforces documented concurrency contracts in harness/system.
var Analyzer = &analysis.Analyzer{
	Name: "contractlint",
	Doc: "require documented concurrency contracts on exported mutable state in " +
		"internal/harness and internal/system",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	lb := lockBearing{}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Package) {
			continue // test files export no API to document
		}
		for _, decl := range f.Decls {
			if decl, ok := decl.(*ast.GenDecl); ok {
				checkGenDecl(pass, lb, decl)
			}
		}
	}
	return nil
}

// inScope limits the analyzer to the concurrent packages. Matching by
// path segment keeps analysistest fixtures (loaded under synthetic
// bingo/internal/...harness... paths) in scope.
func inScope(pkgPath string) bool {
	return strings.HasPrefix(pkgPath, "bingo/internal/") &&
		(strings.Contains(pkgPath, "harness") || strings.Contains(pkgPath, "system"))
}

var contractWords = []string{
	"concurren", "goroutine", "mutex", "lock", "immutable",
	"read-only", "read only", "not safe", "must not be mutated",
}

func statesContract(docs ...*ast.CommentGroup) bool {
	for _, doc := range docs {
		if doc == nil {
			continue
		}
		text := strings.ToLower(doc.Text())
		for _, w := range contractWords {
			if strings.Contains(text, w) {
				return true
			}
		}
	}
	return false
}

func checkGenDecl(pass *analysis.Pass, lb lockBearing, decl *ast.GenDecl) {
	for _, spec := range decl.Specs {
		switch spec := spec.(type) {
		case *ast.ValueSpec:
			if decl.Tok != token.VAR {
				continue // consts are immutable by construction
			}
			for _, name := range spec.Names {
				if !name.IsExported() {
					continue
				}
				if !statesContract(spec.Doc, decl.Doc) {
					pass.Reportf(name.Pos(), "exported package-level var %s is shared mutable state; its doc comment must state the concurrency contract (e.g. \"immutable after init\" or which lock guards it)", name.Name)
				}
			}
		case *ast.TypeSpec:
			if !spec.Name.IsExported() {
				continue
			}
			obj, ok := pass.ObjectOf(spec.Name).(*types.TypeName)
			if !ok || !lb.holds(obj.Type()) {
				continue
			}
			if !statesContract(spec.Doc, decl.Doc) {
				pass.Reportf(spec.Name.Pos(), "exported type %s holds a lock but its doc comment states no concurrency contract", spec.Name.Name)
			}
		}
	}
}

// syncNoCopyTypes are the sync types that must never be copied after
// first use, per their package documentation.
var syncNoCopyTypes = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true, "Once": true,
	"Map": true, "Cond": true, "Pool": true,
}

// lockBearing memoizes whether a type transitively contains a sync
// primitive by value; the same named types recur across declarations.
type lockBearing map[types.Type]bool

func (lb lockBearing) holds(t types.Type) bool {
	if v, ok := lb[t]; ok {
		return v
	}
	lb[t] = false // break recursive type cycles
	v := lb.compute(t)
	lb[t] = v
	return v
}

func (lb lockBearing) compute(t types.Type) bool {
	switch t := t.(type) {
	case *types.Named:
		if pkg := t.Obj().Pkg(); pkg != nil {
			switch pkg.Path() {
			case "sync":
				return syncNoCopyTypes[t.Obj().Name()]
			case "sync/atomic":
				return true // every atomic.T pins its address after first use
			}
		}
		return lb.holds(t.Underlying())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if lb.holds(t.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return lb.holds(t.Elem())
	}
	return false
}

// Package seededrand forbids unseeded randomness and wall-clock reads in
// the engine-path packages (analysis.EnginePath).
//
// The engine's replay and equivalence guarantees hold only if every
// random draw comes from a seeded, checkpointable stream (internal/xrand,
// directly or wrapped in rand.New) and every duration comes from an
// injected obs.Clock. The analyzer reports, inside engine-path packages:
//
//   - calls to math/rand (and math/rand/v2) package-level functions,
//     which share the global unseedable source: rand.Intn, rand.Float64,
//     rand.Shuffle, rand.Perm, ... Constructors that build an explicit
//     seeded generator (rand.New, rand.NewSource, rand.NewPCG,
//     rand.NewZipf) are allowed;
//   - any reference to the wall clock: time.Now, time.Since, time.Until,
//     and the scheduling forms time.Sleep/After/Tick/NewTimer/NewTicker;
//   - any import of crypto/rand (entropy is the opposite of replay).
//
// The one sanctioned wall-clock read — the obs.WallClock implementation
// behind the injectable Clock — carries a //weakvet:rand annotation, as
// must any future exception.
package seededrand

import (
	"go/ast"
	"go/types"
	"strconv"

	"weakmodels/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "seededrand",
	Doc:  "forbid unseeded randomness and wall-clock reads in engine-path packages",
	Run:  run,
}

// seededConstructors are the math/rand functions that build explicit
// generators rather than drawing from the global source.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewZipf": true,
}

// wallClock are the time package functions that read or schedule against
// the wall clock.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

func run(pass *analysis.Pass) error {
	if !analysis.EnginePath[pass.PkgShortName()] {
		return nil
	}
	for _, file := range pass.Files {
		ix := analysis.NewIndex(pass.Fset, file)
		for _, imp := range file.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "crypto/rand" {
				if _, ok := ix.Allows(pass.Fset, imp, "rand"); !ok {
					pass.Reportf(imp.Pos(),
						"crypto/rand in engine-path package %q: entropy breaks replay; use a seeded internal/xrand source (or annotate //weakvet:rand <why>)",
						pass.PkgShortName())
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgPath := importedPkgPath(pass, sel)
			if pkgPath == "" {
				return true
			}
			// Type references (rand.Rand in a signature, time.Duration in a
			// field) are not draws or clock reads.
			if _, isType := pass.TypesInfo.Uses[sel.Sel].(*types.TypeName); isType {
				return true
			}
			switch pkgPath {
			case "math/rand", "math/rand/v2":
				if seededConstructors[sel.Sel.Name] {
					return true
				}
				if _, ok := ix.Allows(pass.Fset, sel, "rand"); ok {
					return true
				}
				pass.Reportf(sel.Pos(),
					"%s.%s draws from the global unseeded source in engine-path package %q: use internal/xrand, directly or wrapped in rand.New (or annotate //weakvet:rand <why>)",
					pathBase(pkgPath), sel.Sel.Name, pass.PkgShortName())
			case "time":
				if !wallClock[sel.Sel.Name] {
					return true
				}
				if _, ok := ix.Allows(pass.Fset, sel, "rand"); ok {
					return true
				}
				pass.Reportf(sel.Pos(),
					"time.%s reads the wall clock in engine-path package %q: inject an obs.Clock (or annotate //weakvet:rand <why>)",
					sel.Sel.Name, pass.PkgShortName())
			}
			return true
		})
	}
	return nil
}

// importedPkgPath resolves sel's qualifier to an imported package path,
// or "" when sel is a field/method selection.
func importedPkgPath(pass *analysis.Pass, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pkgName.Imported().Path()
}

func pathBase(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

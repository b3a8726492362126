package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// simulatorInternals are the layers cmd/ binaries must reach only
// through public packages.
var simulatorInternals = []string{
	"tfrc/internal/sim",
	"tfrc/internal/netsim",
	"tfrc/internal/core",
	"tfrc/internal/cc",
	"tfrc/internal/tcp",
	"tfrc/internal/tfrcsim",
	"tfrc/internal/traffic",
	"tfrc/internal/exp",
	"tfrc/internal/sweep",
	"tfrc/internal/wire",
	"tfrc/internal/stats",
}

// publicPkgs are the packages whose exported API is checked for
// unaliased internal type leaks.
var publicPkgs = map[string]bool{
	"tfrc":            true,
	"tfrc/scenario":   true,
	"tfrc/experiment": true,
}

// importBoundary enforces the module's three-layer architecture:
//
//   - tfrc/examples/... never imports tfrc/internal/...: the examples are
//     the contract of the public scenario/experiment packages.
//   - tfrc/cmd/... never imports the simulator layers
//     (internal/{sim,netsim,core,cc,tcp,tfrcsim,traffic,exp,sweep,wire,stats});
//     binaries are registry shells going through the public packages.
//   - The public packages (tfrc, tfrc/scenario, tfrc/experiment) must not
//     leak internal types through their exported API unless the package
//     re-exports the type under a public alias, so no user is ever forced
//     to name an internal import path.
func importBoundary(pass *pass) {
	path := pass.Pkg.Path()
	switch {
	case pathMatchesAny(path, "tfrc/examples"):
		checkImports(pass, []string{"tfrc/internal"},
			"examples demonstrate the public API and must not import %s")
	case pathMatchesAny(path, "tfrc/cmd"):
		checkImports(pass, simulatorInternals,
			"cmd binaries are registry shells and must not import the simulator layer %s; go through tfrc/scenario or tfrc/experiment")
	}
	if publicPkgs[path] {
		checkExportedLeaks(pass)
	}
}

func checkImports(pass *pass, forbidden []string, format string) {
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if pathMatchesAny(p, forbidden...) {
				pass.reportf(imp.Pos(), format, p)
			}
		}
	}
}

// checkExportedLeaks walks the package's exported API and reports named
// types from internal packages that the package does not re-export
// under an alias.
func checkExportedLeaks(pass *pass) {
	scope := pass.Pkg.Scope()

	// Pass 1: every internal named type published via an exported alias
	// is fine — that IS the re-export mechanism.
	published := make(map[*types.TypeName]bool)
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		if tn, ok := obj.(*types.TypeName); ok && tn.IsAlias() {
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				published[named.Obj()] = true
			}
		}
	}

	leak := func(t types.Type, at ast.Node, what string) {
		var walk func(t types.Type, seen map[types.Type]bool)
		walk = func(t types.Type, seen map[types.Type]bool) {
			if t == nil || seen[t] {
				return
			}
			seen[t] = true
			if named, ok := types.Unalias(t).(*types.Named); ok {
				obj := named.Obj()
				if obj.Pkg() != nil && obj.Pkg() != pass.Pkg &&
					strings.Contains(obj.Pkg().Path(), "/internal") &&
					!published[obj] {
					pass.reportf(at.Pos(),
						"%s exposes internal type %s.%s without a public alias; users would be forced to import %s",
						what, obj.Pkg().Name(), obj.Name(), obj.Pkg().Path())
				}
				return // identity is the issue; don't recurse into its structure
			}
			switch u := t.(type) {
			case *types.Pointer:
				walk(u.Elem(), seen)
			case *types.Slice:
				walk(u.Elem(), seen)
			case *types.Array:
				walk(u.Elem(), seen)
			case *types.Chan:
				walk(u.Elem(), seen)
			case *types.Map:
				walk(u.Key(), seen)
				walk(u.Elem(), seen)
			case *types.Signature:
				walk(u.Params(), seen)
				walk(u.Results(), seen)
			case *types.Tuple:
				for i := 0; i < u.Len(); i++ {
					walk(u.At(i).Type(), seen)
				}
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					if u.Field(i).Exported() {
						walk(u.Field(i).Type(), seen)
					}
				}
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					walk(u.ExplicitMethod(i).Type(), seen)
				}
				for i := 0; i < u.NumEmbeddeds(); i++ {
					walk(u.EmbeddedType(i), seen)
				}
			}
		}
		walk(t, make(map[types.Type]bool))
	}

	// Pass 2: exported declarations.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv != nil {
					// Methods count only when the receiver type is exported.
					if rt := receiverTypeName(d.Recv.List[0].Type); rt != "" && !ast.IsExported(rt) {
						continue
					}
				}
				if fn, ok := pass.TypesInfo.Defs[d.Name].(*types.Func); ok {
					sig := fn.Type().(*types.Signature)
					leak(sig.Params(), d, "exported func "+d.Name.Name)
					leak(sig.Results(), d, "exported func "+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() || s.Assign.IsValid() {
							continue // aliases are the re-export mechanism
						}
						if tn, ok := pass.TypesInfo.Defs[s.Name].(*types.TypeName); ok {
							leak(tn.Type().Underlying(), s, "exported type "+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								leak(pass.TypesInfo.TypeOf(n), s, "exported var/const "+n.Name)
							}
						}
					}
				}
			}
		}
	}
}

func receiverTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return receiverTypeName(e.X)
	case *ast.IndexExpr:
		return receiverTypeName(e.X)
	case *ast.IndexListExpr:
		return receiverTypeName(e.X)
	}
	return ""
}

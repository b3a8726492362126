// Package lint holds the analyzers that mechanically enforce the
// simulator's determinism, zero-alloc, and arena-discipline invariants.
// The paper's figures only reproduce because simulation is
// bit-deterministic, and the hot path is only fast because it is
// closure-free and slab-pooled; each analyzer turns one of those
// reviewer-folklore rules into a build gate.
//
// The gate is a test: TestLintModule lists the module's packages with
// go list, type-checks their non-test files from source with go/types,
// runs every analyzer over them and takes the census of exported code
// only tests call (see census_test.go). Test files are not gated: tests
// measure wall time, build throwaway maps, and poke internals freely.
// It runs with the rest of the tests:
//
//	go test ./internal/lint
//
// Analyzers:
//
//   - detrand: forbids wall-clock time, global math/rand, fmt of map
//     values, and order-sensitive iteration over maps in the
//     deterministic simulator packages.
//   - hotpathalloc: forbids closures, fmt, append, interface boxing and
//     other known allocation patterns inside functions marked with a
//     //tfrc:hotpath directive.
//   - releasecheck: verifies arena discipline — Release methods clear
//     (or explicitly //tfrc:keep) every reference field, sync.Pool.Put
//     arguments are reset, and arena-owned slices are copied out before
//     landing in Result-owned structs.
//   - importboundary: enforces the three-layer architecture (examples/
//     and cmd/ stay off the simulator internals; public packages leak no
//     unaliased internal types).
//   - paramjson: keeps the experiment-registry contract honest — every
//     *Params struct JSON-round-trips and has a Validate() error method.
//
// A false positive is silenced, with a reason, by a line comment:
//
//	//tfrclint:allow <analyzer> <why>
//
// Trailing code, the comment silences its own line; alone on its line,
// it silences the next one. An allow comment that names no analyzer of
// the suite or gives no reason is itself reported.
//
// releasecheck additionally honours //tfrc:keep on struct fields whose
// retention across Release is deliberate (co-owned backing storage that
// the arena recycles wholesale).
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"slices"
	"strings"
)

// An analyzer is one gate: a name, as allow comments and diagnostics
// spell it, and a func that reports through the pass.
type analyzer struct {
	name string
	run  func(*pass)
}

// analyzers is the suite, in documented order.
var analyzers = []analyzer{
	{"detrand", detRand},
	{"hotpathalloc", hotPathAlloc},
	{"releasecheck", releaseCheck},
	{"importboundary", importBoundary},
	{"paramjson", paramJSON},
}

// A pass is one type-checked package handed to one analyzer.
type pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	report    func(pos token.Pos, msg string)
}

func (p *pass) reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// A pkg is a package parsed with its comments and type-checked.
type pkg struct {
	fset  *token.FileSet
	files []*ast.File
	src   map[*ast.File][]byte
	types *types.Package
	info  *types.Info
}

// checkPkg parses the named files and type-checks them as package path,
// resolving imports through imp.
func checkPkg(fset *token.FileSet, path string, filenames []string, imp types.Importer) (*pkg, error) {
	p := &pkg{fset: fset, src: make(map[*ast.File][]byte)}
	for _, name := range filenames {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
		p.src[f] = src
	}
	p.info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var err error
	p.types, err = (&types.Config{Importer: imp}).Check(path, fset, p.files, p.info)
	return p, err
}

// A diagnostic is one finding of an analyzer; "allow" names a malformed
// allow comment.
type diagnostic struct {
	pos      token.Position
	analyzer string
	msg      string
}

func (d diagnostic) format() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.pos.Filename, d.pos.Line, d.analyzer, d.msg)
}

// lintPkg runs the analyzers over p and returns what they report that no
// allow comment silences, after the diagnostics of malformed allow
// comments.
func lintPkg(p *pkg, suite []analyzer) []diagnostic {
	diags, allowed := p.allows()
	for _, a := range suite {
		a.run(&pass{
			Fset:      p.fset,
			Files:     p.files,
			Pkg:       p.types,
			TypesInfo: p.info,
			report: func(pos token.Pos, msg string) {
				at := p.fset.Position(pos)
				if !allowed[lineKey{at.Filename, at.Line}][a.name] {
					diags = append(diags, diagnostic{at, a.name, msg})
				}
			},
		})
	}
	return diags
}

type lineKey struct {
	file string
	line int
}

// allows reads p's //tfrclint:allow comments: which analyzers each line
// silences, and a diagnostic for each comment that names an unknown
// analyzer or gives no reason. Text from a second // on is another
// comment (a fixture's want), not part of the reason.
func (p *pkg) allows() ([]diagnostic, map[lineKey]map[string]bool) {
	var diags []diagnostic
	allowed := make(map[lineKey]map[string]bool)
	for _, f := range p.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//tfrclint:allow")
				if !ok {
					continue
				}
				text, _, _ = strings.Cut(text, "//")
				at := p.fset.Position(c.Pos())
				fields := strings.Fields(text)
				switch {
				case len(fields) == 0:
					diags = append(diags, diagnostic{at, "allow", "//tfrclint:allow names no analyzer"})
					continue
				case !slices.ContainsFunc(analyzers, func(a analyzer) bool { return a.name == fields[0] }):
					diags = append(diags, diagnostic{at, "allow", fmt.Sprintf("//tfrclint:allow names %q, which is not an analyzer of the suite", fields[0])})
					continue
				case len(fields) == 1:
					diags = append(diags, diagnostic{at, "allow", "//tfrclint:allow " + fields[0] + " gives no reason"})
					continue
				}
				line := at.Line
				if alone(p.src[f], at) {
					line++
				}
				k := lineKey{at.Filename, line}
				if allowed[k] == nil {
					allowed[k] = make(map[string]bool)
				}
				allowed[k][fields[0]] = true
			}
		}
	}
	return diags, allowed
}

// alone reports whether only blanks precede the position at on its line.
func alone(src []byte, at token.Position) bool {
	start := at.Offset - (at.Column - 1)
	return strings.TrimSpace(string(src[start:at.Offset])) == ""
}

// staticCallee returns the function or concrete method call invokes, or
// nil for a call through a func value or an interface, a builtin, or a
// conversion.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.IndexExpr: // an instantiation, f[T](…)
		fun = f.X
	case *ast.IndexListExpr:
		fun = f.X
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		fun = sel.Sel
	}
	id, _ := fun.(*ast.Ident)
	fn, _ := info.Uses[id].(*types.Func)
	if fn == nil {
		return nil
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return nil
	}
	return fn
}

// pathMatchesAny reports whether pkgPath matches any of the prefixes
// (exact match or prefix followed by '/').
func pathMatchesAny(pkgPath string, prefixes ...string) bool {
	for _, pre := range prefixes {
		if pkgPath == pre || strings.HasPrefix(pkgPath, pre+"/") {
			return true
		}
	}
	return false
}

// hasDirective reports whether the comment group contains the given
// //-style directive (e.g. "tfrc:hotpath"), which ast.CommentGroup.Text
// strips.
func hasDirective(cg *ast.CommentGroup, directive string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text := strings.TrimPrefix(c.Text, "//")
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

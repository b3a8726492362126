package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// detrandExclude lists the package-path prefixes exempt from detrand:
// tooling, and command/example shells that only format
// already-deterministic results. Real-I/O code inside a checked package
// (internal/wire's OS driver) marks its wall-clock sites one by one.
var detrandExclude = []string{"tfrc/internal/lint", "tfrc/cmd", "tfrc/examples"}

// detrandWallClock lists the package-level time functions that read or
// wait on the wall clock.
var detrandWallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true, "Tick": true,
}

// detrandAllowedRand lists the math/rand(/v2) constructors that build
// explicitly seeded generators — the only sanctioned entry points.
var detrandAllowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// detRand forbids nondeterminism sources in the deterministic simulator
// packages. The figures reproduce byte-identically only because every
// run is a pure function of (params, seed). It rejects the classic
// leaks: time.Now/Since/Until, the wall-clock timers (time.Sleep/After/
// AfterFunc/NewTimer/NewTicker/Tick), package-level math/rand functions
// (seeded from runtime state), handing a map to fmt, and ranging over a
// map where the body is order-sensitive (emits output, schedules work,
// or accumulates floating point). The collect-keys-then-sort idiom is
// recognized: an append inside a map range is fine when the slice is
// sorted later in the same function.
func detRand(pass *pass) {
	if pathMatchesAny(pass.Pkg.Path(), detrandExclude...) {
		return
	}
	for _, file := range pass.Files {
		d := &detrandWalker{pass: pass}
		for _, decl := range file.Decls {
			d.walkDecl(decl)
		}
	}
}

type detrandWalker struct {
	pass *pass
	// fnBody is the innermost enclosing function body, consulted to
	// recognize the append-then-sort idiom.
	fnBody *ast.BlockStmt
}

func (d *detrandWalker) walkDecl(decl ast.Decl) {
	if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
		d.walkFuncBody(fd.Body)
		return
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			d.walkFuncBody(fl.Body)
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			d.checkCall(call)
		}
		return true
	})
}

func (d *detrandWalker) walkFuncBody(body *ast.BlockStmt) {
	prev := d.fnBody
	d.fnBody = body
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			d.walkFuncBody(n.Body)
			return false
		case *ast.CallExpr:
			d.checkCall(n)
		case *ast.RangeStmt:
			d.checkRange(n)
		}
		return true
	})
	d.fnBody = prev
}

// checkCall flags wall-clock reads, global math/rand, and fmt of maps.
func (d *detrandWalker) checkCall(call *ast.CallExpr) {
	fn := staticCallee(d.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return
	}
	recv := fn.Type().(*types.Signature).Recv()
	switch pkg.Path() {
	case "time":
		if recv == nil && detrandWallClock[fn.Name()] {
			d.pass.reportf(call.Pos(),
				"time.%s in deterministic package %s: simulated time comes from sim.Scheduler.Now",
				fn.Name(), d.pass.Pkg.Path())
		}
	case "math/rand", "math/rand/v2":
		if recv == nil && !detrandAllowedRand[fn.Name()] {
			d.pass.reportf(call.Pos(),
				"global %s.%s is seeded from runtime state: draw from a scheduler-owned generator (sim.Scheduler.NewRand)",
				pkg.Name(), fn.Name())
		}
	case "fmt":
		for _, arg := range call.Args {
			t := d.pass.TypesInfo.TypeOf(arg)
			if t == nil {
				continue
			}
			if _, isMap := t.Underlying().(*types.Map); isMap {
				d.pass.reportf(arg.Pos(),
					"fmt of a map value: print explicitly sorted keys instead of relying on fmt's key ordering")
			}
		}
	}
}

// checkRange flags ranging over a map unless every statement in the body
// is order-insensitive.
func (d *detrandWalker) checkRange(rs *ast.RangeStmt) {
	t := d.pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if bad, why := d.orderSensitive(rs.Body, false); bad != nil {
		d.pass.reportf(rs.Pos(),
			"iteration over map is order-sensitive (%s at line %d): collect and sort keys first",
			why, d.pass.Fset.Position(bad.Pos()).Line)
	}
}

// orderSensitive walks a map-range body and returns the first statement
// whose effect depends on iteration order, with a short reason. inCond
// relaxes the rules inside an if/switch arm, where single-assignment
// idioms (max-tracking, unique-key match, early return) are order-free.
func (d *detrandWalker) orderSensitive(stmt ast.Stmt, inCond bool) (ast.Node, string) {
	switch s := stmt.(type) {
	case nil:
		return nil, ""
	case *ast.BlockStmt:
		for _, st := range s.List {
			if bad, why := d.orderSensitive(st, inCond); bad != nil {
				return bad, why
			}
		}
		return nil, ""
	case *ast.IncDecStmt:
		return nil, ""
	case *ast.EmptyStmt, *ast.DeclStmt:
		return nil, ""
	case *ast.BranchStmt:
		if inCond || s.Tok == token.CONTINUE {
			return nil, ""
		}
		return s, "unconditional break picks an arbitrary element"
	case *ast.ReturnStmt:
		if inCond {
			return nil, ""
		}
		return s, "return from map iteration picks an arbitrary element"
	case *ast.IfStmt:
		if bad, why := d.orderSensitive(s.Body, true); bad != nil {
			return bad, why
		}
		return d.orderSensitive(s.Else, true)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			for _, st := range c.(*ast.CaseClause).Body {
				if bad, why := d.orderSensitive(st, true); bad != nil {
					return bad, why
				}
			}
		}
		return nil, ""
	case *ast.ForStmt:
		return d.orderSensitive(s.Body, inCond)
	case *ast.RangeStmt:
		return d.orderSensitive(s.Body, inCond)
	case *ast.AssignStmt:
		return d.assignSensitive(s, inCond)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" {
				if _, isBuiltin := d.pass.TypesInfo.ObjectOf(id).(*types.Builtin); isBuiltin {
					return nil, "" // builtin delete: set semantics
				}
			}
		}
		return s, "call with side effects runs in map order"
	default:
		return s, "statement runs in map order"
	}
}

func (d *detrandWalker) assignSensitive(s *ast.AssignStmt, inCond bool) (ast.Node, string) {
	switch s.Tok {
	case token.DEFINE:
		return nil, "" // fresh per-iteration locals
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
		// Commutative accumulation — order-free for integers, but
		// floating point addition is not associative and string += is
		// concatenation in map order.
		for _, lhs := range s.Lhs {
			t := d.pass.TypesInfo.TypeOf(lhs)
			if t == nil {
				continue
			}
			if b, ok := t.Underlying().(*types.Basic); ok {
				if b.Info()&types.IsFloat != 0 || b.Info()&types.IsComplex != 0 {
					return s, "floating-point accumulation depends on map order"
				}
				if b.Info()&types.IsString != 0 {
					return s, "string concatenation in map order"
				}
			}
		}
		return nil, ""
	case token.ASSIGN:
		for i, lhs := range s.Lhs {
			switch l := lhs.(type) {
			case *ast.IndexExpr:
				continue // m2[k] = v / s[i] = v: keyed writes are order-free
			case *ast.Ident:
				if inCond {
					continue // max-tracking / unique-match idioms
				}
				if i < len(s.Rhs) && d.isSortedAppend(l, s.Rhs[i]) {
					continue
				}
				return s, "last-write-wins assignment in map order"
			default:
				return s, "assignment in map order"
			}
		}
		return nil, ""
	default:
		return s, "assignment in map order"
	}
}

// isSortedAppend recognizes `keys = append(keys, …)` where keys is
// sorted later in the same function — the canonical deterministic way to
// drain a map.
func (d *detrandWalker) isSortedAppend(lhs *ast.Ident, rhs ast.Expr) bool {
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return false
	}
	fun, ok := call.Fun.(*ast.Ident)
	if !ok || fun.Name != "append" {
		return false
	}
	if _, isBuiltin := d.pass.TypesInfo.ObjectOf(fun).(*types.Builtin); !isBuiltin {
		return false
	}
	if len(call.Args) == 0 {
		return false
	}
	first, ok := call.Args[0].(*ast.Ident)
	if !ok || first.Name != lhs.Name {
		return false
	}
	obj := d.pass.TypesInfo.ObjectOf(lhs)
	if obj == nil || d.fnBody == nil {
		return false
	}
	sorted := false
	ast.Inspect(d.fnBody, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(d.pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		switch fn.Name() {
		case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "Stable",
			"SortFunc", "SortStableFunc":
		default:
			return true
		}
		if len(call.Args) == 0 {
			return true
		}
		if id, ok := call.Args[0].(*ast.Ident); ok && d.pass.TypesInfo.ObjectOf(id) == obj {
			sorted = true
		}
		return true
	})
	return sorted
}

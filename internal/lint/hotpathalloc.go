package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotPathAlloc forbids known allocation patterns inside functions whose
// doc comment carries the //tfrc:hotpath directive. The per-packet path
// runs ~1M times a second and is budgeted at zero steady-state
// allocations. A marked function may not contain: function literals
// (closures capture and escape — use AtArg/AfterArg with a shared
// top-level callback), method values (each one allocates a bound
// closure), any fmt call, append, make, new, &composite{}, slice/map
// literals, defer/go, string concatenation, string<->[]byte conversion,
// or implicit boxing of a non-pointer value into an interface. fmt
// inside panic(...) is exempt (cold path by definition); amortized slab
// growth is silenced with an allow comment. These static rules are
// backstopped by the escape-analysis gate (scripts/escape-gate.sh)
// diffing -gcflags=-m output against a committed allowlist; append
// growth is the case only this analyzer sees, since the compiler does
// not report it as an escape.
func hotPathAlloc(pass *pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, "tfrc:hotpath") {
				continue
			}
			h := &hotWalker{
				pass:   pass,
				fn:     fd.Name.Name,
				called: make(map[*ast.SelectorExpr]bool),
				panics: make(map[*ast.CallExpr]bool),
			}
			h.prepass(fd.Body)
			h.walk(fd.Body)
		}
	}
}

type hotWalker struct {
	pass   *pass
	fn     string
	called map[*ast.SelectorExpr]bool // selectors in call position: x.M(...)
	panics map[*ast.CallExpr]bool     // calls that are direct arguments of panic(...)
}

// prepass records which selectors are immediately called and which calls
// feed panic(), since ast.Inspect gives no parent pointers.
func (h *hotWalker) prepass(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			h.called[sel] = true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
			if _, isBuiltin := h.pass.TypesInfo.ObjectOf(id).(*types.Builtin); isBuiltin {
				for _, arg := range call.Args {
					if c, ok := arg.(*ast.CallExpr); ok {
						h.panics[c] = true
					}
				}
			}
		}
		return true
	})
}

func (h *hotWalker) reportf(pos token.Pos, format string, args ...any) {
	h.pass.reportf(pos, "hot path %s: "+format, append([]any{h.fn}, args...)...)
}

func (h *hotWalker) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			h.reportf(n.Pos(), "function literal allocates a closure; use a shared top-level callback with AtArg/AfterArg")
			return false // inner contents are already condemned
		case *ast.CallExpr:
			h.checkCall(n)
		case *ast.SelectorExpr:
			h.checkMethodValue(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					h.reportf(n.Pos(), "&composite literal escapes to the heap; draw from an arena or pool")
				}
			}
		case *ast.CompositeLit:
			if t := h.pass.TypesInfo.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					h.reportf(n.Pos(), "slice/map literal allocates; preallocate in setup")
				}
			}
		case *ast.DeferStmt:
			h.reportf(n.Pos(), "defer in the per-event path; restructure the fast path")
		case *ast.GoStmt:
			h.reportf(n.Pos(), "goroutine launch in the per-event path")
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := h.pass.TypesInfo.TypeOf(n); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						h.reportf(n.Pos(), "string concatenation allocates")
					}
				}
			}
		}
		return true
	})
}

func (h *hotWalker) checkCall(call *ast.CallExpr) {
	info := h.pass.TypesInfo
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				h.reportf(call.Pos(), "append may grow the backing array; reserve capacity in the arena (silence amortized slab growth with //tfrclint:allow hotpathalloc <why>)")
			case "make", "new":
				h.reportf(call.Pos(), "%s allocates; reuse pooled storage", id.Name)
			}
			return
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// A conversion, not a call.
		if len(call.Args) == 1 {
			from := info.TypeOf(call.Args[0])
			if from != nil && isStringByteConv(from.Underlying(), tv.Type.Underlying()) {
				h.reportf(call.Pos(), "string<->[]byte conversion copies; keep one representation")
				return
			}
			if _, ok := tv.Type.Underlying().(*types.Interface); ok {
				h.checkBoxing(call.Args[0], "conversion")
			}
		}
		return
	}
	if fn := staticCallee(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		if !h.panics[call] {
			h.reportf(call.Pos(), "fmt.%s allocates (boxing + formatting); hot paths emit no formatted output", fn.Name())
		}
		return
	}
	// Implicit interface boxing at the call boundary.
	sigT := info.TypeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	np := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through
			}
			if sl, ok := params.At(np - 1).Type().Underlying().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < np:
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); isIface {
			h.checkBoxing(arg, "argument")
		}
	}
}

// checkBoxing reports arg if converting it to an interface type must
// allocate: concrete values that are not pointer-shaped are copied to
// the heap when boxed.
func (h *hotWalker) checkBoxing(arg ast.Expr, what string) {
	info := h.pass.TypesInfo
	t := info.TypeOf(arg)
	if t == nil {
		return
	}
	if tv, ok := info.Types[arg]; ok && tv.IsNil() {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // already boxed, or pointer-shaped: the data word holds it
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			return
		}
	}
	h.reportf(arg.Pos(), "interface %s boxes non-pointer %s onto the heap; pass an arena pointer instead", what, t.String())
}

// checkMethodValue flags `x.M` used as a value (not called).
func (h *hotWalker) checkMethodValue(sel *ast.SelectorExpr) {
	if h.called[sel] {
		return
	}
	s, ok := h.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return
	}
	h.reportf(sel.Pos(), "method value %s allocates a bound closure; prebuild it at setup or use a top-level func", sel.Sel.Name)
}

// isStringByteConv reports whether a conversion between from and to is a
// copying string<->[]byte (or []rune) conversion.
func isStringByteConv(from, to types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isBytes := func(t types.Type) bool {
		sl, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		b, ok := sl.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(from) && isBytes(to)) || (isBytes(from) && isStr(to))
}

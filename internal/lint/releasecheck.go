package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// releaseCheck verifies the arena discipline that keeps pooled working
// sets from pinning dead scenarios or leaking arena memory into results.
// Three checks:
//
//  1. Every reference field (pointer, slice, map, chan, func, interface,
//     or struct containing one) of a type with a Release method must be
//     touched by Release — cleared, truncated, or recycled — either in
//     the method body or in a same-package function it calls. Backing
//     storage that is deliberately kept for reuse (the whole point of an
//     arena) is annotated //tfrc:keep on the field; the annotation is the
//     audit trail for why retention is safe.
//
//  2. An identifier passed to sync.Pool.Put must show reset evidence in
//     the enclosing function: a Release/Reset/Init-style call on it, a
//     wholesale *x = T{} store, or explicit nil-ing/clearing of its
//     fields. Putting a live object pins everything it references until
//     the pool reuses it.
//
//  3. A slice read out of another object (bare identifier, field
//     selector, index, or reslice) must not be stored into a field of a
//     *Result struct: results outlive the scenario's arena, so they copy
//     out (append, slices.Clone, make+copy) instead of aliasing.
func releaseCheck(pass *pass) {
	funcs := packageFuncDecls(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Name.Name == "Release" && fd.Recv != nil {
				checkReleaseZeroing(pass, fd, funcs)
			}
			checkPoolPutsAndCopyOut(pass, fd)
		}
	}
}

// packageFuncDecls maps this package's function objects to their
// declarations, so field mentions can be traced through helper calls.
func packageFuncDecls(pass *pass) map[*types.Func]*ast.FuncDecl {
	m := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					m[fn] = fd
				}
			}
		}
	}
	return m
}

// --- check 1: Release clears or //tfrc:keep-annotates reference fields ---

func checkReleaseZeroing(pass *pass, fd *ast.FuncDecl, funcs map[*types.Func]*ast.FuncDecl) {
	recvType := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	if recvType == nil {
		return
	}
	if p, ok := recvType.(*types.Pointer); ok {
		recvType = p.Elem()
	}
	named, ok := recvType.(*types.Named)
	if !ok {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	spec := findTypeSpec(pass, named.Obj())
	if spec == nil {
		return // declared elsewhere (or generated); nothing to anchor keep-comments to
	}
	structType, ok := spec.Type.(*ast.StructType)
	if !ok {
		return
	}

	// Which reference fields does the struct have, and which carry
	// //tfrc:keep?
	kept := make(map[string]bool)
	for _, f := range structType.Fields.List {
		if hasDirective(f.Doc, "tfrc:keep") || hasDirective(f.Comment, "tfrc:keep") {
			for _, name := range f.Names {
				kept[name.Name] = true
			}
			if len(f.Names) == 0 { // embedded
				kept[embeddedFieldName(f.Type)] = true
			}
		}
	}

	// Which fields does Release (transitively, same package, shallow
	// depth) mention?
	mentioned := make(map[*types.Var]bool)
	wholesale := false
	seen := map[*ast.FuncDecl]bool{}
	var visit func(body *ast.BlockStmt, depth int)
	visit = func(body *ast.BlockStmt, depth int) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if sel, ok := pass.TypesInfo.Selections[n]; ok && sel.Kind() == types.FieldVal {
					if v, ok := sel.Obj().(*types.Var); ok {
						mentioned[v] = true
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if star, ok := lhs.(*ast.StarExpr); ok {
						if t := pass.TypesInfo.TypeOf(star.X); t != nil {
							if p, ok := t.(*types.Pointer); ok && types.Identical(p.Elem(), named) {
								wholesale = true
							}
						}
					}
				}
			case *ast.CallExpr:
				if depth >= 4 {
					return true
				}
				if fn := staticCallee(pass.TypesInfo, n); fn != nil && fn.Pkg() == pass.Pkg {
					if callee, ok := funcs[fn]; ok && !seen[callee] {
						seen[callee] = true
						visit(callee.Body, depth+1)
					}
				}
			}
			return true
		})
	}
	visit(fd.Body, 0)
	if wholesale {
		return
	}

	var missing []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if kept[f.Name()] || mentioned[f] {
			continue
		}
		if !containsReference(f.Type(), make(map[types.Type]bool)) {
			continue
		}
		missing = append(missing, f.Name())
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		pass.reportf(fd.Pos(),
			"Release of %s leaves reference field(s) %s live: clear/recycle them, or annotate //tfrc:keep with why retention is safe",
			named.Obj().Name(), strings.Join(missing, ", "))
	}
}

func findTypeSpec(pass *pass, obj types.Object) *ast.TypeSpec {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, s := range gd.Specs {
				if ts, ok := s.(*ast.TypeSpec); ok && pass.TypesInfo.Defs[ts.Name] == obj {
					return ts
				}
			}
		}
	}
	return nil
}

func embeddedFieldName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return embeddedFieldName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return embeddedFieldName(e.X)
	}
	return ""
}

// containsReference reports whether t holds any pointerful component a
// stale object could pin.
func containsReference(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Array:
		return containsReference(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsReference(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

// --- checks 2+3: Pool.Put reset evidence, Result copy-out ---

func checkPoolPutsAndCopyOut(pass *pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkPoolPut(pass, fd, n)
		case *ast.AssignStmt:
			checkResultCopyOut(pass, n)
		}
		return true
	})
}

func checkPoolPut(pass *pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Put" || len(call.Args) != 1 {
		return
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" || named.Obj().Name() != "Pool" {
		return
	}
	arg, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return // fresh values / non-trackable expressions: out of scope
	}
	obj := pass.TypesInfo.ObjectOf(arg)
	if obj == nil {
		return
	}
	argType := obj.Type()
	if p, ok := argType.(*types.Pointer); ok {
		argType = p.Elem()
	}
	// A pooled buffer pins its own backing array by design; reset
	// evidence is only demanded when the pooled value's contents carry
	// references (a []byte does not, a []*Agent or struct with
	// callbacks does).
	switch u := argType.Underlying().(type) {
	case *types.Slice:
		if !containsReference(u.Elem(), make(map[types.Type]bool)) {
			return
		}
	case *types.Array:
		if !containsReference(u.Elem(), make(map[types.Type]bool)) {
			return
		}
	default:
		if !containsReference(argType, make(map[types.Type]bool)) {
			return
		}
	}
	if poolPutResetEvidence(pass, fd.Body, obj) {
		return
	}
	pass.reportf(call.Pos(),
		"sync.Pool.Put(%s) without reset evidence in this function: call its Release/Reset, store *%s = zero, or nil out its reference fields before pooling",
		arg.Name, arg.Name)
}

// poolPutResetEvidence scans the function for signs that obj's reference
// fields were reset before pooling.
func poolPutResetEvidence(pass *pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	rootedAt := func(e ast.Expr) bool {
		for {
			switch x := e.(type) {
			case *ast.Ident:
				return pass.TypesInfo.ObjectOf(x) == obj
			case *ast.SelectorExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			default:
				return false
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.SelectorExpr:
				// x.Release() / x.Reset() / x.reset() / x.Init(...)
				name := fun.Sel.Name
				if rootedAt(fun.X) {
					switch strings.ToLower(name) {
					case "release", "reset", "clear", "init", "zero":
						found = true
					}
				}
			case *ast.Ident:
				// clear(x.f) or reset helpers taking x.
				if fun.Name == "clear" {
					if _, isBuiltin := pass.TypesInfo.ObjectOf(fun).(*types.Builtin); isBuiltin {
						if len(n.Args) == 1 && rootedAt(n.Args[0]) {
							found = true
						}
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if star, ok := lhs.(*ast.StarExpr); ok && rootedAt(star.X) {
					found = true // *x = T{}
				}
				// x.f = nil / x.f = x.f[:0] style field scrubs.
				if sel, ok := lhs.(*ast.SelectorExpr); ok && rootedAt(sel.X) {
					if i < len(n.Rhs) {
						if tv, ok := pass.TypesInfo.Types[n.Rhs[i]]; ok && tv.IsNil() {
							found = true
						}
						if sl, ok := n.Rhs[i].(*ast.SliceExpr); ok && rootedAt(sl.X) {
							found = true
						}
					}
				}
				// Indexed scrubs: x.f[i].g = nil inside a loop.
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					if rootedAt(sel.X) {
						continue
					}
					if ie, ok := sel.X.(*ast.IndexExpr); ok && rootedAt(ie.X) {
						if i < len(n.Rhs) {
							if tv, ok := pass.TypesInfo.Types[n.Rhs[i]]; ok && tv.IsNil() {
								found = true
							}
						}
					}
				}
			}
		}
		return true
	})
	return found
}

// checkResultCopyOut flags `res.F = <aliasing slice>` where res's type
// name ends in Result: results outlive the arena, so slices must be
// copied out, not shared.
func checkResultCopyOut(pass *pass, n *ast.AssignStmt) {
	for i, lhs := range n.Lhs {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok || i >= len(n.Rhs) {
			continue
		}
		t := pass.TypesInfo.TypeOf(sel.X)
		if t == nil {
			continue
		}
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || !strings.HasSuffix(named.Obj().Name(), "Result") {
			continue
		}
		ft := pass.TypesInfo.TypeOf(lhs)
		if ft == nil {
			continue
		}
		if _, isSlice := ft.Underlying().(*types.Slice); !isSlice {
			continue
		}
		if resultRooted(pass, n.Rhs[i]) {
			continue // Result -> Result handoff transfers ownership, no arena involved
		}
		if aliasingSliceExpr(n.Rhs[i]) {
			pass.reportf(n.Rhs[i].Pos(),
				"slice stored into %s field %s may alias arena/monitor memory that the next scenario recycles; copy out (append([]T(nil), src...) or slices.Clone)",
				named.Obj().Name(), sel.Sel.Name)
		}
	}
}

// resultRooted reports whether e reads out of a value whose type name
// ends in Result: slices moving between result structs are an ownership
// transfer of already-private memory, not an arena alias.
func resultRooted(pass *pass, e ast.Expr) bool {
	for {
		var x ast.Expr
		switch v := e.(type) {
		case *ast.SelectorExpr:
			x = v.X
		case *ast.IndexExpr:
			x = v.X
		case *ast.SliceExpr:
			x = v.X
		case *ast.ParenExpr:
			x = v.X
		default:
			return false
		}
		t := pass.TypesInfo.TypeOf(x)
		if t != nil {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && strings.HasSuffix(named.Obj().Name(), "Result") {
				return true
			}
		}
		e = x
	}
}

// aliasingSliceExpr reports whether e provably shares a backing array
// owned by another object: a field selector, or an index/reslice rooted
// at one. Locally built slices, calls, and append/composite expressions
// are presumed fresh (copy-out produces exactly those shapes).
func aliasingSliceExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return aliasingSliceExpr(e.X)
	case *ast.SliceExpr:
		return aliasingSliceExpr(e.X)
	case *ast.ParenExpr:
		return aliasingSliceExpr(e.X)
	}
	return false
}

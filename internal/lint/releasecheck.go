package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// releaseCheck keeps results from aliasing arena memory: a slice read
// out of another object (a field selector, or an index or reslice of
// one) must not be stored into a field of a *Result struct. Results
// outlive the scenario's arena, whose next cell rewrites that memory,
// so they copy out (append, slices.Clone, make+copy) instead.
func releaseCheck(pass *pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok {
				checkResultCopyOut(pass, as)
			}
			return true
		})
	}
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

package lint

import (
	"bytes"
	"go/ast"
	"go/types"
	"strings"
	"testing"
)

// rules fails the test where the module states a second time what it
// states once: the house testbed, the chunked allocator, and the run
// options' process default.
func rules(t *testing.T, m *module) {
	t.Helper()
	testbedStatedOnce(t, m)
	oneChunkedAllocator(t, m)
	runOptionsPassed(t, m)
}

// testbedStatedOnce: the house testbed (buffer-scaled RED thresholds,
// the jittered flow configs) is spelled out in one file of internal/exp,
// testbed.go; a second file spelling either out is a copy that will
// drift.
func testbedStatedOnce(t *testing.T, m *module) {
	t.Helper()
	p := m.pkgs["tfrc/internal/exp"]
	if p == nil {
		t.Fatal("testbed rule: package tfrc/internal/exp not loaded")
	}
	for _, pat := range []string{"max(5, float64(", "PacingJitter = 0.05"} {
		var files []string
		for _, f := range p.files {
			if bytes.Contains(p.src[f], []byte(pat)) {
				files = append(files, m.rel(p.fset.Position(f.Pos()).Filename))
			}
		}
		if len(files) > 1 {
			t.Errorf("house testbed stated once: %q appears in %d non-test files of internal/exp, want one: %s",
				pat, len(files), strings.Join(files, ", "))
		}
	}
}

// oneChunkedAllocator: sim.Slab is the one chunked allocator. A second
// type that keeps a chunks [][]T field is a second allocator to reset,
// scrub and budget.
func oneChunkedAllocator(t *testing.T, m *module) {
	t.Helper()
	for _, p := range m.pkgs {
		for _, f := range p.files {
			file := m.rel(p.fset.Position(f.Pos()).Filename)
			if file == "internal/sim/slab.go" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				field, ok := n.(*ast.Field)
				if !ok {
					return true
				}
				for _, name := range field.Names {
					if v, ok := p.info.Defs[name].(*types.Var); ok && name.Name == "chunks" && isSliceOfSlices(v.Type()) {
						at := p.fset.Position(name.Pos())
						t.Errorf("%s:%d: one chunked allocator: a chunks field of type %s outside internal/sim/slab.go",
							file, at.Line, v.Type())
					}
				}
				return true
			})
		}
	}
}

func isSliceOfSlices(typ types.Type) bool {
	s, ok := typ.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	_, ok = s.Elem().Underlying().(*types.Slice)
	return ok
}

// runOptionsPassed: a run's worker count and context are a RunOptions
// value read once at the entry point and handed down. Under internal/
// and cmd/, the one process default, exp.SetParallelism and
// exp.DefaultRunOptions, may be used only in their own definitions and
// in the two option-less adapters, Grid.RunRange and shard.Run. (The
// public experiment package re-exports both.)
func runOptionsPassed(t *testing.T, m *module) {
	t.Helper()
	exp, shard := m.pkgs["tfrc/internal/exp"], m.pkgs["tfrc/internal/shard"]
	if exp == nil || shard == nil {
		t.Fatal("run-options rule: packages tfrc/internal/exp and tfrc/internal/shard not loaded")
	}
	def := func(p *pkg, name string) types.Object {
		obj := p.types.Scope().Lookup(name)
		if obj == nil {
			t.Fatalf("run-options rule: %s.%s not found", p.types.Path(), name)
		}
		return obj
	}
	setPar, defOpts := def(exp, "SetParallelism"), def(exp, "DefaultRunOptions")
	runRange, _, _ := types.LookupFieldOrMethod(types.NewPointer(def(exp, "Grid").Type()), true, exp.types, "RunRange")
	allowed := map[types.Object]bool{setPar: true, defOpts: true, runRange: true, def(shard, "Run"): true}

	for path, p := range m.pkgs {
		if !pathMatchesAny(path, "tfrc/internal", "tfrc/cmd") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				var in types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					in = p.info.Defs[fd.Name]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok || (p.info.Uses[id] != setPar && p.info.Uses[id] != defOpts) || allowed[in] {
						return true
					}
					at := p.fset.Position(id.Pos())
					t.Errorf("%s:%d: run options are passed, not installed: %s used outside its definition and the adapters Grid.RunRange and shard.Run",
						m.rel(at.Filename), at.Line, id.Name)
					return true
				})
			}
		}
	}
}

package lint

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// censusAllowlist names, one per line as `dir Name` or `dir Recv.Name`
// followed by `# reason`, the exported funcs and methods that no non-test
// code calls and that stay anyway.
const censusAllowlist = "scripts/census_allowlist.txt"

// publicDirs are the public packages. A func of theirs stays because an
// example under examples/ calls it, never because an allowlist line gives
// a reason.
var publicDirs = []string{".", "scenario", "experiment"}

// census fails the test on every exported func or method of the module
// that no non-test code calls and the allowlist does not name, and on
// every allowlist line that names nothing of the kind or names public API.
// Calls resolve through go/types, so a method counts as called only
// through its own object: by a direct call, a method value, or a call
// through an interface method of the same name that its type implements.
// A call from inside the declaration itself does not count. A method that
// implements an interface of the standard library (String, MarshalText,
// …) counts as called, since the standard library calls it.
func census(t *testing.T, m *module) {
	t.Helper()
	type decl struct {
		id   string
		body ast.Node
	}
	decls := make(map[*types.Func]decl)
	for _, p := range m.pkgs {
		for _, f := range p.files {
			dir := m.rel(filepath.Dir(p.fset.Position(f.Pos()).Filename))
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				decls[fn] = decl{dir + " " + funcName(fn), fd}
			}
		}
	}

	// A method may be called through any interface it implements that a
	// call names, or that the standard library declares.
	called := make(map[*types.Func]bool)
	ifaces := map[string][]*types.Interface{"Error": {types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}}
	for _, p := range m.pkgs {
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaces[fn.Name()] = append(ifaces[fn.Name()], recv.Type().Underlying().(*types.Interface))
			}
			if d, ok := decls[fn]; ok && (id.Pos() < d.body.Pos() || id.Pos() >= d.body.End()) {
				called[fn] = true
			}
		}
	}
	for _, s := range m.std {
		for _, name := range s.Scope().Names() {
			tn, ok := s.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() {
				for i := 0; i < it.NumMethods(); i++ {
					ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
				}
			}
		}
	}

	var unused []string
	for fn, d := range decls {
		if !called[fn] && !implementsAny(recvType(fn), ifaces[fn.Name()]) {
			unused = append(unused, d.id)
		}
	}
	slices.Sort(unused)

	data, err := os.ReadFile(filepath.Join(m.dir, censusAllowlist))
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for i, line := range strings.Split(string(data), "\n") {
		id, reason, _ := strings.Cut(line, "#")
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s gives no reason", censusAllowlist, i+1, id)
		}
		if dir, _, _ := strings.Cut(id, " "); slices.Contains(publicDirs, dir) {
			t.Errorf("%s:%d: %s is public API; an example under examples/ calls it, or it is deleted", censusAllowlist, i+1, id)
		}
		listed = append(listed, id)
	}
	var add, drop []string
	for _, id := range unused {
		if !slices.Contains(listed, id) {
			add = append(add, id+"  # ")
		}
	}
	for _, id := range listed {
		if !slices.Contains(unused, id) {
			drop = append(drop, id)
		}
	}
	if len(add) > 0 {
		t.Errorf("census: exported code that no non-test code calls; delete it, or add these lines to %s with a reason after the #:\n%s",
			censusAllowlist, strings.Join(add, "\n"))
	}
	if len(drop) > 0 {
		t.Errorf("census: %s names code that is now called or gone; delete these lines:\n%s",
			censusAllowlist, strings.Join(drop, "\n"))
	}
}

// recvType returns the type method fn is declared on, pointer stripped,
// or nil for a func.
func recvType(fn *types.Func) types.Type {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	if p, ok := recv.Type().(*types.Pointer); ok {
		return p.Elem()
	}
	return recv.Type()
}

// funcName spells fn as the allowlist does: Name, or Recv.Name for a
// method.
func funcName(fn *types.Func) string {
	if t := recvType(fn); t != nil {
		return t.(*types.Named).Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// implementsAny reports whether t or *t implements one of the
// interfaces.
func implementsAny(t types.Type, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		if t != nil && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
			return true
		}
	}
	return false
}

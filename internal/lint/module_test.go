package lint

import (
	"bytes"
	"encoding/json"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestModuleHasNoDependencies pins the module to the standard library:
// the gates run as a go/types test, so nothing needs to be vendored or
// fetched to build or test the repository.
func TestModuleHasNoDependencies(t *testing.T) {
	out, err := exec.Command("go", "list", "-m", "all").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -m all: %v\n%s", err, out)
	}
	if got := strings.TrimSpace(string(out)); got != "tfrc" {
		t.Errorf("go list -m all = %q, want only the module itself (tfrc)", got)
	}
}

// TestLintModule is the gate: every analyzer over every non-test package
// of the module, then the census of exported code only tests call. A
// diagnostic prints as file:line: analyzer: message.
func TestLintModule(t *testing.T) {
	m := loadModule(t)
	for _, p := range m.pkgs {
		for _, d := range lintPkg(p, analyzers) {
			d.pos.Filename = m.rel(d.pos.Filename)
			t.Error(d.format())
		}
	}
	census(t, m)
}

// A module is the module's non-test packages, type-checked from source
// in dependency order over one file set, so a use in one package
// resolves to the same types.Object as its declaration in another.
type module struct {
	dir  string          // the module root
	pkgs map[string]*pkg // by import path
	std  []*types.Package
}

// rel names a file or directory of the module from its root.
func (m *module) rel(path string) string {
	r, err := filepath.Rel(m.dir, path)
	if err != nil {
		return path
	}
	return filepath.ToSlash(r)
}

// listedPkg is what loadModule reads of go list -json.
type listedPkg struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Standard, DepOnly       bool
	Module                  *struct{ Dir string }
}

// loadModule lists the module's packages and their dependencies with go
// list, takes the standard library from the export data go list builds,
// and type-checks every module package from source. It fails the test on
// a go list error, a type error, or a package of go list ./... it did
// not check.
func loadModule(t *testing.T) *module {
	t.Helper()
	out := goList(t, "list", "-deps", "-export", "-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly,Module", "./...")
	var listed []listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var lp listedPkg
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decoding go list: %v", err)
		}
		listed = append(listed, lp)
	}

	exports := make(map[string]string)
	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	m := &module{pkgs: make(map[string]*pkg)}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := m.pkgs[path]; ok {
			return p.types, nil
		}
		return gc.Import(path)
	})
	for _, lp := range listed {
		if lp.Standard {
			exports[lp.ImportPath] = lp.Export
			continue
		}
		if lp.DepOnly || lp.Module == nil {
			t.Fatalf("%s: a dependency outside the module and the standard library", lp.ImportPath)
		}
		m.dir = lp.Module.Dir
		var files []string
		for _, f := range lp.GoFiles {
			files = append(files, filepath.Join(lp.Dir, f))
		}
		p, err := checkPkg(fset, lp.ImportPath, files, imp)
		if err != nil {
			t.Fatalf("type-checking %s: %v", lp.ImportPath, err)
		}
		m.pkgs[lp.ImportPath] = p
	}
	for _, lp := range listed {
		if lp.Standard {
			std, err := gc.Import(lp.ImportPath)
			if err != nil {
				t.Fatalf("importing %s: %v", lp.ImportPath, err)
			}
			m.std = append(m.std, std)
		}
	}

	want := strings.Fields(string(goList(t, "list", "./...")))
	for _, path := range want {
		if m.pkgs[path] == nil {
			t.Errorf("go list ./... names %s, which the load left out", path)
		}
	}
	if len(m.pkgs) != len(want) {
		t.Errorf("checked %d packages, but go list ./... names %d", len(m.pkgs), len(want))
	}
	if t.Failed() {
		t.FailNow()
	}
	return m
}

// goList runs the go command in the module root.
func goList(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = filepath.Join("..", "..")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

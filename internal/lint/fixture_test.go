package lint

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// TestAnalyzerSet pins the suite: exactly the documented analyzers, in
// documented order.
func TestAnalyzerSet(t *testing.T) {
	want := []string{"detrand", "hotpathalloc", "releasecheck", "importboundary", "paramjson"}
	if len(analyzers) != len(want) {
		t.Fatalf("%d analyzers, want %d", len(analyzers), len(want))
	}
	for i, a := range analyzers {
		if a.name != want[i] || a.run == nil {
			t.Errorf("analyzers[%d] = %q (run set: %v), want %q", i, a.name, a.run != nil, want[i])
		}
	}
}

func TestDetRand(t *testing.T)      { runFixtures(t, "detrand", "detrand") }
func TestHotPathAlloc(t *testing.T) { runFixtures(t, "hotpathalloc", "hotpathalloc") }
func TestReleaseCheck(t *testing.T) { runFixtures(t, "releasecheck", "releasecheck") }
func TestParamJSON(t *testing.T)    { runFixtures(t, "paramjson", "paramjson") }

func TestImportBoundary(t *testing.T) {
	runFixtures(t, "importboundary",
		"tfrc/examples/demo",
		"tfrc/cmd/badcmd",
		"tfrc/cmd/goodcmd",
		"tfrc/scenario",
		"tfrc/experiment",
		"tfrc/internal/sim", // internals themselves are unconstrained
	)
}

// TestAllowComments runs no analyzer: what it reports is the allow
// comments themselves.
func TestAllowComments(t *testing.T) { runFixtures(t, "", "allow") }

// runFixtures type-checks each named package under testdata/src, runs
// the named analyzer (none for ""), and matches the diagnostics against
// the fixture's // want `regexp` comments: each want expects one
// diagnostic per backquoted regexp on its own line, and every diagnostic
// must be wanted.
func runFixtures(t *testing.T, name string, paths ...string) {
	t.Helper()
	var suite []analyzer
	for _, a := range analyzers {
		if a.name == name {
			suite = append(suite, a)
		}
	}
	l := &fixtureLoader{
		fset: token.NewFileSet(),
		pkgs: make(map[string]*pkg),
	}
	for _, path := range paths {
		p, err := l.load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		checkWants(t, path, p, lintPkg(p, suite))
	}
}

// stdSource compiles the standard library from source for the fixtures;
// the tests share it, and so its cache.
var stdSource = importer.ForCompiler(token.NewFileSet(), "source", nil)

// fixtureLoader resolves a fixture's imports against sibling testdata
// directories (so "tfrc/internal/sim" means testdata/src/tfrc/internal/sim)
// and the standard library, compiled from source.
type fixtureLoader struct {
	fset *token.FileSet
	pkgs map[string]*pkg
}

func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	dir := filepath.Join("testdata", "src", filepath.FromSlash(path))
	if _, err := os.Stat(dir); err != nil {
		return stdSource.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *fixtureLoader) load(path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	files, err := filepath.Glob(filepath.Join("testdata", "src", filepath.FromSlash(path), "*.go"))
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("no Go files for %s: %v", path, err)
	}
	p, err := checkPkg(l.fset, path, files, l)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// A want comment lists backquoted patterns.
var wantRe, patternRe = regexp.MustCompile("// want (.*)$"), regexp.MustCompile("`([^`]*)`")

func checkWants(t *testing.T, path string, p *pkg, diags []diagnostic) {
	t.Helper()
	wants := make(map[lineKey][]*regexp.Regexp)
	for _, f := range p.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.fset.Position(c.Pos())
				k := lineKey{pos.Filename, pos.Line}
				for _, q := range patternRe.FindAllStringSubmatch(m[1], -1) {
					wants[k] = append(wants[k], regexp.MustCompile(q[1]))
				}
			}
		}
	}
	for _, d := range diags {
		k := lineKey{d.pos.Filename, d.pos.Line}
		i := slices.IndexFunc(wants[k], func(rx *regexp.Regexp) bool { return rx.MatchString(d.msg) })
		if i < 0 {
			t.Errorf("%s: unexpected diagnostic %s", path, d.format())
			continue
		}
		wants[k] = slices.Delete(wants[k], i, i+1)
	}
	var missed []string
	for k, rxs := range wants {
		for _, rx := range rxs {
			missed = append(missed, fmt.Sprintf("%s: %s:%d: no diagnostic matching %q", path, k.file, k.line, rx))
		}
	}
	slices.Sort(missed)
	for _, m := range missed {
		t.Error(m)
	}
}

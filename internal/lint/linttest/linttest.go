// Package linttest is hique's stand-in for
// golang.org/x/tools/go/analysis/analysistest: it type-checks fixture
// packages against source stubs of the engine's well-known types
// (catalog.TableEntry, storage.Table, the hique/runtime ABI), runs a set of analyzers through the real driver (so
// //lint:allow suppression is exercised too), and matches diagnostics
// against `// want "regex"` annotations in the fixture source.
//
// Fixtures live in each analyzer's testdata directory; the shared stubs
// live under this package's testdata/stubs, laid out by import path
// (testdata/stubs/hique/internal/catalog/...). Stubs import nothing but
// other stubs, so no export data or network is needed.
package linttest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"hique/internal/lint/analysis"
	"hique/internal/lint/driver"
)

// StubRoot returns the shared stub tree (testdata/stubs next to this
// file), located via the caller path so analyzer packages can use it
// from their own directories.
func StubRoot() string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		panic("linttest: cannot locate stub root")
	}
	return filepath.Join(filepath.Dir(file), "testdata", "stubs")
}

// stubImporter resolves import paths from stub source directories,
// type-checking them on first use. Stubs may import other stubs.
type stubImporter struct {
	fset  *token.FileSet
	root  string
	cache map[string]*types.Package
}

func (si *stubImporter) Import(path string) (*types.Package, error) {
	if p, ok := si.cache[path]; ok {
		return p, nil
	}
	dir := filepath.Join(si.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("linttest: no stub for import %q (add one under %s): %v", path, si.root, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(si.fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: si}
	pkg, err := conf.Check(path, si.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("linttest: stub %q does not type-check: %v", path, err)
	}
	si.cache[path] = pkg
	return pkg, nil
}

// Analyze type-checks the fixture package in dir under the given import
// path and runs the analyzers through the driver, returning surviving
// diagnostics. Fixtures must type-check cleanly — a broken fixture is a
// test bug, not a finding.
func Analyze(t *testing.T, dir, importPath string, analyzers ...*analysis.Analyzer) []driver.Diagnostic {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("linttest: reading fixture dir: %v", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("linttest: parsing fixture: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("linttest: no fixture files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var terrs []error
	conf := types.Config{
		Importer: &stubImporter{fset: token.NewFileSet(), root: StubRoot(), cache: map[string]*types.Package{}},
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	pkg, _ := conf.Check(importPath, fset, files, info)
	if len(terrs) > 0 {
		t.Fatalf("linttest: fixture %s does not type-check: %v", dir, terrs)
	}
	return driver.RunAnalyzers(fset, files, pkg, info, analyzers)
}

// want is one expected diagnostic: a regex anchored to a file line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// wantRe extracts the expectation list from a source line. Patterns are
// double-quoted Go strings or backquoted raw strings after `// want`.
var wantRe = regexp.MustCompile(`// want (.*)$`)

var patRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func collectWants(t *testing.T, dir string) []*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("linttest: reading fixture dir: %v", err)
	}
	var out []*want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pats := patRe.FindAllString(m[1], -1)
			if len(pats) == 0 {
				t.Fatalf("linttest: %s:%d: `// want` with no quoted pattern", e.Name(), i+1)
			}
			for _, p := range pats {
				var raw string
				if p[0] == '`' {
					raw = p[1 : len(p)-1]
				} else {
					raw, err = strconv.Unquote(p)
					if err != nil {
						t.Fatalf("linttest: %s:%d: bad want pattern %s: %v", e.Name(), i+1, p, err)
					}
				}
				re, err := regexp.Compile(raw)
				if err != nil {
					t.Fatalf("linttest: %s:%d: want pattern does not compile: %v", e.Name(), i+1, err)
				}
				out = append(out, &want{file: e.Name(), line: i + 1, re: re})
			}
		}
	}
	return out
}

// Run analyzes the fixture and matches diagnostics against its
// `// want` annotations: every diagnostic must be wanted on its line,
// and every want must be hit exactly once.
func Run(t *testing.T, dir, importPath string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	diags := Analyze(t, dir, importPath, analyzers...)
	wants := collectWants(t, dir)
	for _, d := range diags {
		base := filepath.Base(d.Position.Filename)
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == base && w.line == d.Position.Line && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// Package archtest states the repository's design rules as checks over its
// type-checked syntax trees, so that `go test ./...` enforces them on every
// change. It has no non-test code: nothing in it is part of the program.
package archtest

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// modulePath is the module's import-path prefix (go.mod).
const modulePath = "csq"

// roots are the module directories whose code the rules read.
var roots = []string{"internal", "cmd", "bench"}

// pkg is one module package: its non-test files type-checked, its test
// files parsed only (rules that forbid a name forbid it in tests too).
type pkg struct {
	path  string // import path, e.g. "csq/internal/exec"
	dir   string // directory relative to the module root, slash-separated
	files []*ast.File
	tests []*ast.File
	types *types.Package
	info  *types.Info
}

type module struct {
	fset *token.FileSet
	pkgs []*pkg // dependency order: a package follows every module package it imports
}

var (
	loadOnce sync.Once
	loaded   *module
	loadErr  error
)

// load parses and type-checks the module once per test binary.
func load(t *testing.T) *module {
	t.Helper()
	loadOnce.Do(func() { loaded, loadErr = loadModule(filepath.Join("..", "..")) })
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loaded
}

func loadModule(root string) (*module, error) {
	m := &module{fset: token.NewFileSet()}
	byPath := map[string]*pkg{}
	imports := map[string][]string{}
	for _, r := range roots {
		err := filepath.WalkDir(filepath.Join(root, r), func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			bp, err := build.ImportDir(path, 0)
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			p := &pkg{path: modulePath + "/" + filepath.ToSlash(rel), dir: filepath.ToSlash(rel)}
			if p.files, err = m.parse(path, bp.GoFiles); err != nil {
				return err
			}
			tests := append(append([]string{}, bp.TestGoFiles...), bp.XTestGoFiles...)
			for _, f := range bp.IgnoredGoFiles { // build-tagged tests (chaos)
				if strings.HasSuffix(f, "_test.go") {
					tests = append(tests, f)
				}
			}
			if p.tests, err = m.parse(path, tests); err != nil {
				return err
			}
			byPath[p.path] = p
			imports[p.path] = bp.Imports
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	std, err := stdImporter(imports, byPath)
	if err != nil {
		return nil, err
	}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := byPath[path]; ok {
			if p.types == nil {
				return nil, fmt.Errorf("%s imported before it was checked", path)
			}
			return p.types, nil
		}
		return std.Import(path)
	})
	done := map[string]bool{}
	var visit func(path string) error
	visit = func(path string) error {
		p, ok := byPath[path]
		if !ok || done[path] {
			return nil
		}
		done[path] = true
		for _, dep := range imports[path] {
			if err := visit(dep); err != nil {
				return err
			}
		}
		p.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(path, m.fset, p.files, p.info)
		if err != nil {
			return fmt.Errorf("type-check %s: %w", path, err)
		}
		p.types = tp
		m.pkgs = append(m.pkgs, p)
		return nil
	}
	paths := make([]string, 0, len(byPath))
	for path := range byPath {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// stdImporter imports the standard-library packages the module's code
// names from their export data, found with one `go list -export` for all of
// them: importer.Default runs `go list` once per package, which costs seconds
// of CPU beside the rest of the suite.
func stdImporter(imports map[string][]string, byPath map[string]*pkg) (types.Importer, error) {
	args := []string{"list", "-export", "-f", "{{.ImportPath}}={{.Export}}"}
	seen := map[string]bool{}
	for _, deps := range imports {
		for _, dep := range deps {
			if _, ok := byPath[dep]; !ok && dep != "C" && !seen[dep] {
				seen[dep] = true
				args = append(args, dep)
			}
		}
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "="); ok {
			export[path] = file
		}
	}
	return importer.ForCompiler(token.NewFileSet(), "gc", func(path string) (io.ReadCloser, error) {
		file, ok := export[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	}), nil
}

func (m *module) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// under reports whether p lies in the module directory dir ("internal",
// "internal/exec", ...).
func (p *pkg) under(dir string) bool {
	return p.dir == dir || strings.HasPrefix(p.dir, dir+"/")
}

// fileName is the slash-separated path of f relative to the module root.
func (m *module) fileName(f *ast.File) string {
	name := filepath.ToSlash(m.fset.Position(f.Pos()).Filename)
	return strings.TrimPrefix(name, "../../")
}

// pos renders a position relative to the module root.
func (m *module) pos(p token.Pos) string {
	position := m.fset.Position(p)
	return fmt.Sprintf("%s:%d", strings.TrimPrefix(filepath.ToSlash(position.Filename), "../../"), position.Line)
}

package analyzers

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked repository package.
type Package struct {
	Path   string // import path, e.g. "ssos/internal/mem"
	Module string // module path from go.mod, e.g. "ssos"
	Fset   *token.FileSet
	Files  []*ast.File
	Types  *types.Package
	Info   *types.Info
}

// Loader type-checks repository packages without external tooling:
// module-internal imports are resolved by recursively type-checking
// their source directories (test files excluded), standard-library
// imports through the compiler's source importer. Loads are memoized,
// so a package is checked once per Loader regardless of fan-in.
type Loader struct {
	root   string // module root directory
	module string // module path from go.mod
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*Package
	state  map[string]loadState
}

type loadState int

const (
	loadNew loadState = iota
	loadActive
	loadDone
)

// NewLoader creates a loader rooted at the module directory containing
// go.mod.
func NewLoader(root string) (*Loader, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		root:   root,
		module: module,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   map[string]*Package{},
		state:  map[string]loadState{},
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// Import implements types.Importer, routing module-internal paths to
// the source tree and everything else to the standard library.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks one module-internal package.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.state[path] == loadActive {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.state[path] = loadActive
	defer func() {
		if l.state[path] == loadActive {
			l.state[path] = loadNew
		}
	}()

	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", path, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("load %s: no Go files in %s", path, dir)
	}
	pkg, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	return pkg, nil
}

// check type-checks a parsed file set as the package at path and
// memoizes the result.
func (l *Loader) check(path string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	pkg := &Package{Path: path, Module: l.module, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	l.state[path] = loadDone
	return pkg, nil
}

// CheckSource type-checks one in-memory source file as a package with
// the given import path. Used by tests to feed the analyzers synthetic
// violations; the path governs which analyzers' Applies predicates
// would match it.
func (l *Loader) CheckSource(path, src string) (*Package, error) {
	f, err := parser.ParseFile(l.fset, path+"/src.go", src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	return l.check(path, []*ast.File{f})
}

// Load resolves package patterns to import paths and type-checks them.
// Supported patterns: "./..." (every package under the module root) and
// plain relative directories like "./internal/mem". Directories named
// testdata and hidden directories are never matched by "./...".
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	seen := map[string]bool{}
	var paths []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	for _, pat := range patterns {
		switch pat {
		case "./...", "...":
			dirs, err := l.walkPackageDirs()
			if err != nil {
				return nil, err
			}
			for _, d := range dirs {
				add(d)
			}
		default:
			// Cleaned, so ./internal/mem/ loads as the import path the
			// analyzers' path scoping matches, not ssos/internal/mem/.
			rel := path.Clean(filepath.ToSlash(strings.TrimPrefix(pat, "./")))
			if rel == "." {
				add(l.module)
			} else {
				add(l.module + "/" + rel)
			}
		}
	}
	sort.Strings(paths)
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// walkPackageDirs finds every directory under the module root holding
// non-test Go files and returns their import paths.
func (l *Loader) walkPackageDirs() ([]string, error) {
	var out []string
	err := filepath.WalkDir(l.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != l.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			return nil
		}
		rel, err := filepath.Rel(l.root, filepath.Dir(p))
		if err != nil {
			return err
		}
		if rel == "." {
			out = append(out, l.module)
		} else {
			out = append(out, l.module+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	out = dedupSorted(out)
	return out, nil
}

func dedupSorted(s []string) []string {
	w := 0
	for i, v := range s {
		if i == 0 || v != s[w-1] {
			s[w] = v
			w++
		}
	}
	return s[:w]
}

// ModuleRoot walks upward from dir to the directory containing go.mod.
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package directory.
type Package struct {
	Dir   string
	Path  string // import path ("repro/internal/cache"), best-effort
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// ignores maps filename -> source line -> the analyzer scope its
	// "//lint:ignore" directives suppress (the comment's line and the
	// next).
	ignores map[string]map[int]*ignoreScope
}

// loader parses and type-checks package directories. Imports — both
// standard library and intra-module — resolve through the compiler's
// source importer, so no export data and no external tooling is needed.
type loader struct {
	fset *token.FileSet
	imp  types.Importer
}

func newLoader() *loader {
	fset := token.NewFileSet()
	return &loader{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// load parses the non-test Go files of dir and type-checks them. A
// directory normally holds one package; if it holds several (package
// clauses differ), each is checked separately.
func (l *loader) load(dir string) ([]*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	byPkg := map[string][]*ast.File{}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		// Honor build constraints under the default context, exactly as
		// `go build` would: of a //go:build race / !race pair only one
		// file is part of the package, and checking both at once is a
		// spurious redeclaration error.
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		byPkg[f.Name.Name] = append(byPkg[f.Name.Name], f)
	}
	names := make([]string, 0, len(byPkg))
	for name := range byPkg {
		names = append(names, name)
	}
	sort.Strings(names)

	var out []*Package
	for _, name := range names {
		files := byPkg[name]
		sort.Slice(files, func(i, j int) bool {
			return l.fset.Position(files[i].Pos()).Filename < l.fset.Position(files[j].Pos()).Filename
		})
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: l.imp}
		path := importPath(dir, name)
		tpkg, err := conf.Check(path, l.fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", dir, err)
		}
		p := &Package{
			Dir:     dir,
			Path:    path,
			Fset:    l.fset,
			Files:   files,
			Types:   tpkg,
			Info:    info,
			ignores: map[string]map[int]*ignoreScope{},
		}
		p.collectIgnores()
		out = append(out, p)
	}
	return out, nil
}

// importPath derives an import path for dir by locating the enclosing
// go.mod. Failing that (or for package main), the directory path serves;
// the path is only used for display and in phaseaudit's keys.
func importPath(dir, pkgName string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return dir
	}
	root := abs
	for {
		data, err := os.ReadFile(filepath.Join(root, "go.mod"))
		if err == nil {
			module := modulePath(data)
			if module == "" {
				return dir
			}
			rel, err := filepath.Rel(root, abs)
			if err != nil {
				return dir
			}
			if rel == "." {
				return module
			}
			return module + "/" + filepath.ToSlash(rel)
		}
		parent := filepath.Dir(root)
		if parent == root {
			return dir // no module found
		}
		root = parent
	}
}

// modulePath extracts the module path from go.mod contents.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

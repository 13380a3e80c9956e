package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
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
)

// The loader type-checks module packages from source with stdlib tooling
// only: `go list -export -deps -json` yields compiled export data for
// every dependency (std and module alike), and go/importer's gc importer
// consumes it through a lookup function. This avoids any dependency on
// golang.org/x/tools while giving the analyzers full go/types resolution
// across package boundaries.

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	Incomplete bool
	Error      *struct{ Err string }
}

// goList runs `go list -export -deps -json` in dir over patterns and
// returns the decoded package stream.
func goList(dir string, patterns []string) ([]*listPkg, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Name,Dir,Export,GoFiles,DepOnly,Standard,Incomplete,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportLookup builds the gc importer's lookup function from the listed
// packages' export files. Vendored std packages are listed under a
// "vendor/" prefix, so the fallback probe covers export data that refers
// to them by their unvendored path.
func exportLookup(pkgs []*listPkg) func(path string) (io.ReadCloser, error) {
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			file, ok = exports["vendor/"+path]
		}
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
}

// LoadPackages lists patterns in the module rooted at (or containing) dir
// and returns the matched packages parsed and type-checked, sorted by
// import path. Dependencies resolve from compiled export data; only the
// matched packages themselves are checked from source.
func LoadPackages(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exportLookup(listed))
	conf := types.Config{Importer: imp}

	var targets []*listPkg
	for _, p := range listed {
		if p.DepOnly || p.Standard {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		targets = append(targets, p)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	var out []*Package
	for _, t := range targets {
		var files []string
		for _, f := range t.GoFiles {
			files = append(files, filepath.Join(t.Dir, f))
		}
		pkg, err := checkFiles(fset, conf, t.ImportPath, files)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// LoadDir parses and type-checks the single (non-module) package of
// loose .go files in dir — the fixture loader. Imports, including module
// import paths, resolve through `go list -export` run in moduleDir.
func LoadDir(moduleDir, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	sort.Strings(files)

	// Parse first so the import set drives one `go list -export -deps`
	// call that yields export data for everything the fixture pulls in.
	fset := token.NewFileSet()
	var syntax []*ast.File
	imports := map[string]bool{}
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, f)
		for _, spec := range f.Imports {
			imports[strings.Trim(spec.Path.Value, `"`)] = true
		}
	}
	var patterns []string
	for path := range imports {
		patterns = append(patterns, path)
	}
	sort.Strings(patterns)

	conf := types.Config{Importer: importer.Default()}
	if len(patterns) > 0 {
		listed, err := goList(moduleDir, patterns)
		if err != nil {
			return nil, err
		}
		conf.Importer = importer.ForCompiler(fset, "gc", exportLookup(listed))
	}
	return check(fset, conf, "fixture/"+filepath.Base(dir), syntax)
}

// checkFiles parses files and type-checks them as one package.
func checkFiles(fset *token.FileSet, conf types.Config, pkgPath string, files []string) (*Package, error) {
	var syntax []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, f)
	}
	return check(fset, conf, pkgPath, syntax)
}

func check(fset *token.FileSet, conf types.Config, pkgPath string, syntax []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	tpkg, err := conf.Check(pkgPath, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", pkgPath, err)
	}
	return &Package{
		PkgPath: pkgPath,
		Fset:    fset,
		Syntax:  syntax,
		Types:   tpkg,
		Info:    info,
	}, nil
}

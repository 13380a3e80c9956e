// Package lint is speclint: a suite of static analyzers that enforce the
// repo's load-bearing contracts at compile time instead of trusting the
// dynamic gates (equivalence sweeps, testing.AllocsPerRun pins, -race) to
// happen to exercise a violation.
//
// SPECTECTOR (Guarnieri et al.) and the compositional-semantics detector
// of Fabian et al. make the case for the paper's own domain: testing
// samples executions, static analysis covers a bug class. internal/detect
// applies that philosophy to the simulated programs; this package applies
// it to the codebase itself. Three analyzers, one contract each:
//
//   - nondeterminism: code reachable from registered experiment shard
//     functions and aggregators must be a pure function of its inputs —
//     no wall clock, no global RNG, no environment reads, no pointer
//     formatting — and (module-wide) no map iteration whose order feeds
//     an output, an unsorted slice, or a hash. This is the determinism
//     contract behind canonical record signatures and the remote
//     backend's byte-equality dedup.
//   - allocfree: functions annotated //speclint:allocfree (the
//     steady-state trial loop and its pinned hot paths) must not contain
//     alloc-introducing constructs: make/new, non-reuse append, string
//     concatenation/conversion, interface boxing at call sites, escaping
//     capturing closures, or fmt calls outside cold return/panic paths.
//   - lockdiscipline: struct fields commented "// guarded by mu" may only
//     be accessed in functions that acquire the guarding mutex themselves
//     or are annotated //speclint:holds mu (callers hold it, or the value
//     is still under construction and unpublished).
//
// The framework is deliberately stdlib-only (go/ast + go/types, packages
// loaded from `go list -export` data); it mirrors the go/analysis shape —
// Analyzer values with a Run(*Pass) hook, diagnostics with positions — so
// the analyzers would port to a vettool multichecker mechanically.
//
// # Directives
//
//	//speclint:allocfree            (function doc) opt the function into allocfree
//	//speclint:holds mu[, mu2]      (function doc) callers hold the named mutexes
//	//speclint:ignore NAME reason   (same or previous line) suppress one diagnostic
//	// guarded by mu                (struct field comment) field is mu-protected
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: the unit the per-package
// analyzers run over, and (collectively) the module view the reachability
// analysis runs over.
type Package struct {
	// PkgPath is the package's import path.
	PkgPath string
	// Fset is the file set shared by every package of one load.
	Fset *token.FileSet
	// Syntax holds the parsed files, comments included.
	Syntax []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info is the type information for Syntax.
	Info *types.Info
}

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one contract check. Module analyzers see every loaded
// package at once (Pass.All) and run exactly once per load; per-package
// analyzers run once per package with Pass.Pkg set to it.
type Analyzer struct {
	// Name keys the analyzer in diagnostics, -run filters and
	// //speclint:ignore directives.
	Name string
	// Doc is the one-line contract statement.
	Doc string
	// Module marks whole-module analyzers (one run per load, Pass.Pkg is
	// nil); unset means one run per package.
	Module bool
	// Run reports the analyzer's findings through pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one analyzer execution's inputs and its report sink.
type Pass struct {
	Analyzer *Analyzer
	// Pkg is the package under analysis (nil for module analyzers).
	Pkg *Package
	// All is every package of the load, for module-wide views.
	All []*Package

	diags *[]Diagnostic
	dirs  *directives
}

// Report records one finding at pos unless an //speclint:ignore directive
// for this analyzer covers the position.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.fset().Position(pos)
	if p.dirs.ignored(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

func (p *Pass) fset() *token.FileSet {
	if p.Pkg != nil {
		return p.Pkg.Fset
	}
	return p.All[0].Fset
}

// Run executes analyzers over pkgs and returns the findings sorted by
// position. Module analyzers run once, per-package analyzers once per
// package.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	var diags []Diagnostic
	dirs := parseDirectives(pkgs)
	for _, a := range analyzers {
		if a.Module {
			pass := &Pass{Analyzer: a, All: pkgs, diags: &diags, dirs: dirs}
			if err := a.Run(pass); err != nil {
				return diags, fmt.Errorf("%s: %w", a.Name, err)
			}
			continue
		}
		for _, pkg := range pkgs {
			pass := &Pass{Analyzer: a, Pkg: pkg, All: pkgs, diags: &diags, dirs: dirs}
			if err := a.Run(pass); err != nil {
				return diags, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	// One construct can trip the same rule twice on a line (an append
	// that reads and writes a guarded field, say); collapse the noise.
	dedup := diags[:0]
	for _, d := range diags {
		if len(dedup) > 0 {
			last := dedup[len(dedup)-1]
			if last.Pos.Filename == d.Pos.Filename && last.Pos.Line == d.Pos.Line &&
				last.Analyzer == d.Analyzer && last.Message == d.Message {
				continue
			}
		}
		dedup = append(dedup, d)
	}
	return dedup, nil
}

// All returns the full speclint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Nondeterminism,
		AllocFree,
		LockDiscipline,
	}
}

// ByName resolves a comma-separated analyzer list ("" = all).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// ---- directives ----------------------------------------------------------

var (
	ignoreRe  = regexp.MustCompile(`^//speclint:ignore\s+([a-z]+)\b`)
	holdsRe   = regexp.MustCompile(`^//speclint:holds\s+(.+)$`)
	guardedRe = regexp.MustCompile(`\bguarded by (\w+)\b`)
)

// directives indexes every speclint comment directive of a load.
type directives struct {
	// ignore maps file -> line -> analyzer names suppressed on that line.
	ignore map[string]map[int]map[string]bool
}

func parseDirectives(pkgs []*Package) *directives {
	d := &directives{ignore: map[string]map[int]map[string]bool{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := ignoreRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					byLine := d.ignore[pos.Filename]
					if byLine == nil {
						byLine = map[int]map[string]bool{}
						d.ignore[pos.Filename] = byLine
					}
					names := byLine[pos.Line]
					if names == nil {
						names = map[string]bool{}
						byLine[pos.Line] = names
					}
					names[m[1]] = true
				}
			}
		}
	}
	return d
}

// ignored reports whether an //speclint:ignore directive for analyzer sits
// on the diagnostic's line or the line directly above it.
func (d *directives) ignored(analyzer string, pos token.Position) bool {
	byLine := d.ignore[pos.Filename]
	if byLine == nil {
		return false
	}
	return byLine[pos.Line][analyzer] || byLine[pos.Line-1][analyzer]
}

// funcAnnotations extracts the //speclint: function annotations of decl.
type funcAnnotations struct {
	allocFree bool
	holds     []string
}

func annotationsOf(decl *ast.FuncDecl) funcAnnotations {
	var fa funcAnnotations
	if decl.Doc == nil {
		return fa
	}
	for _, c := range decl.Doc.List {
		text := strings.TrimSpace(c.Text)
		if text == "//speclint:allocfree" {
			fa.allocFree = true
		}
		if m := holdsRe.FindStringSubmatch(text); m != nil {
			for _, name := range strings.Split(m[1], ",") {
				if name = strings.TrimSpace(name); name != "" {
					fa.holds = append(fa.holds, name)
				}
			}
		}
	}
	return fa
}

// guardedFieldComment returns the mutex name a struct field's comment
// declares with "guarded by NAME", or "".
func guardedFieldComment(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// ---- shared AST helpers --------------------------------------------------

// exprString renders an expression canonically for structural comparisons
// (self-append detection, lock-call matching).
func exprString(e ast.Expr) string { return types.ExprString(e) }

// calleeFunc resolves a call's static callee, unwrapping parens; nil for
// builtins, conversions, and dynamic (func-value) calls. Interface-method
// calls resolve to the interface's *types.Func.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// callPath renders a callee as "pkgpath.Name" or "pkgpath.Recv.Name"
// ("" when the call has no static callee).
func callPath(info *types.Info, call *ast.CallExpr) string {
	f := calleeFunc(info, call)
	if f == nil {
		return ""
	}
	return funcPath(f)
}

// funcPath is the cross-package identity key for a function or method:
// "pkg/path.Func" or "pkg/path.Recv.Method" (pointer receivers are
// spelled like value receivers, so call sites and declarations agree).
func funcPath(f *types.Func) string {
	if f.Pkg() == nil {
		return f.Name() // error.Error and friends
	}
	sig, _ := f.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return f.Pkg().Path() + "." + n.Obj().Name() + "." + f.Name()
		}
		return f.Pkg().Path() + ".(recv)." + f.Name()
	}
	return f.Pkg().Path() + "." + f.Name()
}

// isPkgFunc reports whether call is a static call to pkgPath.name.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	f := calleeFunc(info, call)
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == pkgPath && f.Name() == name
}

// enclosingFuncs maps every node position range to its top-level FuncDecl
// by walking decls; used to attribute statements to functions.
func fileFuncs(f *ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			out = append(out, fd)
		}
	}
	return out
}

// pointerShaped reports whether converting a value of t to an interface
// stores it directly in the interface word, i.e. boxing it does not
// allocate.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	}
	return false
}

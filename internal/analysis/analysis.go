// Package analysis is a small static-analysis framework on the pure
// standard library (go/parser, go/ast, go/types with a source importer —
// no golang.org/x/tools), preserving the module's zero-dependency
// property. It mechanically enforces the project conventions that the
// pipeline's correctness rests on but that the compiler cannot check:
// the nil fast path that keeps unobserved compiles bit-identical
// (DESIGN.md §9), context plumbed through the
// anneal/route/bridge hot loops for cancellation, the *Locked /
// "guarded by mu" discipline in internal/service, the tqec[cd]_*
// metric-naming scheme, and structured (never raw-printed) daemon
// output.
//
// An Analyzer inspects one type-checked package and reports structured,
// position-carrying findings; the cmd/tqec-vet driver loads the module,
// runs every registered analyzer, and exits nonzero when anything is
// found. DESIGN.md §11 catalogues what each analyzer proves.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer hit: a stable analyzer name, the source
// position it anchors to, and a human-readable message.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Column   int            `json:"column"`
	Message  string         `json:"message"`
}

// String renders the finding in the familiar path:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Column, f.Analyzer, f.Message)
}

// Analyzer is one named invariant check over a single package.
type Analyzer struct {
	// Name identifies the analyzer in reports (stable, lowercase).
	Name string
	// Doc is a one-line description of the invariant it enforces.
	Doc string
	// Run inspects pass.Pkg and reports findings via pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one package through one analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Column:   position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InInternal reports whether the package under analysis lives under an
// internal/ directory — the scope of the daemon-hygiene analyzers
// (ctxflow, noprint).
func (p *Pass) InInternal() bool {
	path := p.Pkg.Path
	return strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/")
}

// Run applies every analyzer to every package and returns the findings
// sorted by position, then analyzer name.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg, findings: &findings}
			a.Run(pass)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}

// Default returns the production analyzer set, the one cmd/tqec-vet and
// the clean-tree test run.
func Default() []*Analyzer {
	return []*Analyzer{
		NilGuard(DefaultNilGuardTargets),
		CtxFlow(),
		LockedCall(),
		MetricName(),
		SpanName(),
		NoPrint(),
	}
}

// funcFor returns the *types.Func a call expression resolves to, or nil
// for builtins, conversions, function-typed variables, and anything else
// that is not a declared function or method.
func funcFor(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// hasContextParam reports whether the signature accepts a
// context.Context anywhere in its parameter list.
func hasContextParam(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

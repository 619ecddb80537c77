package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"
)

// spanNameRE is the DESIGN §9 span taxonomy: lowercase-hyphen names
// ("primal-bridge", "route-round", "dispatch") so traces from any
// process slot into the same dashboards without a normalization pass.
var spanNameRE = regexp.MustCompile(`^[a-z][a-z0-9]*(-[a-z0-9]+)*$`)

// spanPrefixRE is the sanctioned shape for dynamic span names: a
// taxonomy-style literal prefix ending in a separator ("drc:", "seed-")
// followed by runtime data. The prefix keeps the family greppable even
// though the full name varies.
var spanPrefixRE = regexp.MustCompile(`^[a-z][a-z0-9-]*[-:]$`)

// SpanName builds the spanname analyzer: every span name passed to
// obs.StartSpan or (*obs.Span).StartChild, and every warning code passed
// to obs.Warn, must be a lowercase-hyphen
// string literal, a literal-prefixed concatenation or Sprintf (the
// "drc:"/"seed-" pattern), or a parameter of a local wrapper function
// whose own call sites satisfy the same rule (the stage-begin closure
// pattern in internal/compress). Tracer roots (obs.NewTracer) are
// exempt: they carry job identity ("job:j000001") by design. Free-form
// names fragment the trace taxonomy silently — nothing breaks, the
// spans just stop aggregating.
func SpanName() *Analyzer {
	a := &Analyzer{
		Name: "spanname",
		Doc:  "span names passed to obs.StartSpan/Span.StartChild and warning codes passed to obs.Warn must be lowercase-hyphen literals or taxonomy-prefixed dynamic names (DESIGN §9)",
	}
	a.Run = func(pass *Pass) {
		// The obs package itself forwards caller-supplied names through
		// its plumbing (StartSpan calls StartChild with its parameter);
		// the convention binds the callers, not the framework.
		if pass.Pkg.Path == obsRegistryPath {
			return
		}
		info := pass.Pkg.Info
		// First pass: validate every span-start name expression. Names
		// that are wrapper parameters are collected for the second pass
		// instead of being judged in place.
		params := map[*types.Var]token.Pos{}
		for _, file := range pass.Pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if arg, ok := spanNameArg(info, call); ok {
					checkSpanNameExpr(pass, info, arg, params)
				}
				return true
			})
		}
		if len(params) == 0 {
			return
		}
		// Second pass: a wrapper parameter is fine exactly when every
		// call site of its wrapper passes a conforming name. One level
		// only — a parameter arriving at a wrapper call site is reported
		// there, not traced further.
		for param, pos := range params {
			sites, ok := wrapperCallSites(pass.Pkg.Files, info, param)
			if !ok {
				pass.Reportf(pos,
					"span name flows from parameter %q of a function whose call sites cannot be resolved; use a literal or a resolvable local wrapper", param.Name())
				continue
			}
			for _, site := range sites {
				checkSpanNameExpr(pass, info, site, nil)
			}
		}
	}
	return a
}

// spanNameArg returns the span-name argument of a call to obs.StartSpan
// (second argument) or (*obs.Span).StartChild (first argument), or the
// warning code of a call to obs.Warn (second argument): a warning is a
// probe fact too, and its code shares the taxonomy.
func spanNameArg(info *types.Info, call *ast.CallExpr) (ast.Expr, bool) {
	fn := funcFor(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != obsRegistryPath {
		return nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, false
	}
	switch {
	case (fn.Name() == "StartSpan" || fn.Name() == "Warn") && sig.Recv() == nil && len(call.Args) >= 2:
		return call.Args[1], true
	case fn.Name() == "StartChild" && recvNamed(sig) == "Span" && len(call.Args) >= 1:
		return call.Args[0], true
	}
	return nil, false
}

// recvNamed returns the name of the receiver's (possibly pointed-to)
// named type, or "".
func recvNamed(sig *types.Signature) string {
	if sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// checkSpanNameExpr validates one span-name expression. When params is
// non-nil, an identifier bound to a function parameter is recorded there
// for wrapper-call-site validation instead of being reported; with a nil
// params (already at a wrapper call site) it is a violation.
func checkSpanNameExpr(pass *Pass, info *types.Info, expr ast.Expr, params map[*types.Var]token.Pos) {
	expr = ast.Unparen(expr)
	switch e := expr.(type) {
	case *ast.BasicLit:
		if name, ok := stringLit(e); ok {
			if !spanNameRE.MatchString(name) {
				pass.Reportf(e.Pos(), "span name %q does not match the taxonomy ^[a-z][a-z0-9]*(-[a-z0-9]+)*$ (DESIGN §9)", name)
			}
			return
		}
	case *ast.BinaryExpr:
		// "drc:" + dynamic — judged by the leftmost literal prefix.
		if e.Op == token.ADD {
			if lit, ok := leftmostLit(e); ok {
				if prefix, ok := stringLit(lit); ok {
					if !spanPrefixRE.MatchString(prefix) {
						pass.Reportf(lit.Pos(), "dynamic span name prefix %q must be lowercase-hyphen ending in '-' or ':' (DESIGN §9)", prefix)
					}
					return
				}
			}
			pass.Reportf(e.Pos(), "dynamic span name must start with a taxonomy string-literal prefix (\"drc:\" + …)")
			return
		}
	case *ast.CallExpr:
		// fmt.Sprintf("seed-%d", …) — judged by the format's literal
		// prefix up to the first verb.
		if fn := funcFor(info, e); fn != nil && fn.Pkg() != nil &&
			fn.Pkg().Path() == "fmt" && fn.Name() == "Sprintf" && len(e.Args) > 0 {
			if lit, ok := ast.Unparen(e.Args[0]).(*ast.BasicLit); ok {
				if format, ok := stringLit(lit); ok {
					prefix := format
					if i := strings.IndexByte(format, '%'); i >= 0 {
						prefix = format[:i]
					}
					if !spanPrefixRE.MatchString(prefix) {
						pass.Reportf(lit.Pos(), "dynamic span name prefix %q must be lowercase-hyphen ending in '-' or ':' (DESIGN §9)", prefix)
					}
					return
				}
			}
			pass.Reportf(e.Pos(), "Sprintf span name must use a string-literal format with a taxonomy prefix (\"seed-%%d\")")
			return
		}
	case *ast.Ident:
		if params != nil {
			if v, ok := info.Uses[e].(*types.Var); ok && isFuncParam(pass.Pkg.Files, info, v) {
				if _, seen := params[v]; !seen {
					params[v] = e.Pos()
				}
				return
			}
		}
	}
	pass.Reportf(expr.Pos(), "span name must be a lowercase-hyphen string literal (or a taxonomy-prefixed dynamic name) so the DESIGN §9 span set is auditable")
}

// stringLit unquotes a string literal, reporting whether e is one.
func stringLit(e *ast.BasicLit) (string, bool) {
	if e.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(e.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

// leftmostLit descends the left spine of a + chain to its first operand.
func leftmostLit(e *ast.BinaryExpr) (*ast.BasicLit, bool) {
	left := ast.Unparen(e.X)
	for {
		b, ok := left.(*ast.BinaryExpr)
		if !ok || b.Op != token.ADD {
			break
		}
		left = ast.Unparen(b.X)
	}
	lit, ok := left.(*ast.BasicLit)
	return lit, ok
}

// isFuncParam reports whether v is declared as a parameter of some
// function declaration or literal in the package.
func isFuncParam(files []*ast.File, info *types.Info, v *types.Var) bool {
	_, _, found := findParamOwner(files, info, v)
	return found
}

// findParamOwner locates the FuncDecl or FuncLit that declares v as a
// parameter, and v's flattened argument index.
func findParamOwner(files []*ast.File, info *types.Info, v *types.Var) (owner ast.Node, index int, found bool) {
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			if found {
				return false
			}
			var ft *ast.FuncType
			switch fn := n.(type) {
			case *ast.FuncDecl:
				ft = fn.Type
			case *ast.FuncLit:
				ft = fn.Type
			default:
				return true
			}
			idx := 0
			for _, field := range ft.Params.List {
				for _, name := range field.Names {
					if info.Defs[name] == v {
						owner, index, found = n, idx, true
						return false
					}
					idx++
				}
				if len(field.Names) == 0 {
					idx++
				}
			}
			return true
		})
		if found {
			return owner, index, true
		}
	}
	return nil, 0, false
}

// wrapperCallSites returns the expressions passed for parameter v at
// every call site of its owning function. ok is false when the owner (or
// the variable a func literal is bound to) cannot be resolved — e.g. a
// closure only ever passed as a value — in which case the caller reports
// at the span-start site instead.
func wrapperCallSites(files []*ast.File, info *types.Info, v *types.Var) (args []ast.Expr, ok bool) {
	owner, index, found := findParamOwner(files, info, v)
	if !found {
		return nil, false
	}
	var match func(call *ast.CallExpr) bool
	switch fn := owner.(type) {
	case *ast.FuncDecl:
		target, _ := info.Defs[fn.Name].(*types.Func)
		if target == nil {
			return nil, false
		}
		match = func(call *ast.CallExpr) bool { return funcFor(info, call) == target }
	case *ast.FuncLit:
		bound := boundVar(files, info, fn)
		if bound == nil {
			return nil, false
		}
		match = func(call *ast.CallExpr) bool {
			id, isIdent := ast.Unparen(call.Fun).(*ast.Ident)
			return isIdent && info.Uses[id] == bound
		}
	default:
		return nil, false
	}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, isCall := n.(*ast.CallExpr)
			if !isCall || !match(call) || index >= len(call.Args) {
				return true
			}
			args = append(args, call.Args[index])
			return true
		})
	}
	return args, true
}

// boundVar finds the variable a func literal is directly assigned to
// (begin := func(…){…} or var begin = func(…){…}), or nil.
func boundVar(files []*ast.File, info *types.Info, lit *ast.FuncLit) *types.Var {
	var bound *types.Var
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			if bound != nil {
				return false
			}
			switch st := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range st.Rhs {
					if ast.Unparen(rhs) == lit && i < len(st.Lhs) {
						if id, ok := st.Lhs[i].(*ast.Ident); ok {
							if v, ok := info.Defs[id].(*types.Var); ok {
								bound = v
							} else if v, ok := info.Uses[id].(*types.Var); ok {
								bound = v
							}
						}
					}
				}
			case *ast.ValueSpec:
				for i, val := range st.Values {
					if ast.Unparen(val) == lit && i < len(st.Names) {
						if v, ok := info.Defs[st.Names[i]].(*types.Var); ok {
							bound = v
						}
					}
				}
			}
			return true
		})
		if bound != nil {
			return bound
		}
	}
	return nil
}

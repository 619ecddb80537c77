package analysis

import (
	"go/ast"
)

// DefaultNilGuardTargets are the types whose nil fast path keeps
// unobserved compiles bit-identical (DESIGN.md §9): every exported
// pointer-receiver method must tolerate a nil receiver, because
// instrumentation call sites deliberately hold nil when neither a tracer
// nor a sink is installed in the context.
var DefaultNilGuardTargets = map[string][]string{
	"tqec/internal/obs": {"Tracer", "Span"},
}

// NilGuard builds the nilguard analyzer for the given targets
// (package path → type names). Exported pointer-receiver methods on a
// target type must begin with a nil-receiver guard
// (`if r == nil { return ... }`).
func NilGuard(targets map[string][]string) *Analyzer {
	a := &Analyzer{
		Name: "nilguard",
		Doc:  "exported pointer-receiver methods on nil-fast-path types must begin with a nil-receiver guard",
	}
	a.Run = func(pass *Pass) {
		isTarget := map[string]bool{}
		for _, n := range targets[pass.Pkg.Path] {
			isTarget[n] = true
		}
		for _, file := range pass.Pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || !ast.IsExported(fd.Name.Name) {
					continue
				}
				typ, ptr := receiverType(fd)
				if !ptr || !isTarget[typ] {
					continue
				}
				recv := receiverName(fd)
				if recv == "" || fd.Body == nil || len(fd.Body.List) == 0 || !isNilGuard(fd.Body.List[0], recv) {
					pass.Reportf(fd.Name.Pos(),
						"exported method (*%s).%s must begin with a nil-receiver guard: the nil fast path keeps unobserved runs bit-identical",
						typ, fd.Name.Name)
				}
			}
		}
	}
	return a
}

// receiverType returns the receiver's named type and whether it is a
// pointer receiver.
func receiverType(fd *ast.FuncDecl) (name string, pointer bool) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return "", false
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
		pointer = true
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name, pointer
	}
	return "", false
}

// receiverName returns the receiver identifier, or "" when unnamed.
func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	name := fd.Recv.List[0].Names[0].Name
	if name == "_" {
		return ""
	}
	return name
}

// isNilGuard reports whether stmt is `if recv == nil { ... return ... }`
// (the guard body's final statement must return, so the nil path really
// does bail out).
func isNilGuard(stmt ast.Stmt, recv string) bool {
	ifs, ok := stmt.(*ast.IfStmt)
	if !ok || ifs.Init != nil {
		return false
	}
	cond, ok := ifs.Cond.(*ast.BinaryExpr)
	if !ok || cond.Op.String() != "==" {
		return false
	}
	if !isRecvNilPair(cond.X, cond.Y, recv) && !isRecvNilPair(cond.Y, cond.X, recv) {
		return false
	}
	if len(ifs.Body.List) == 0 {
		return false
	}
	_, returns := ifs.Body.List[len(ifs.Body.List)-1].(*ast.ReturnStmt)
	return returns
}

func isRecvNilPair(x, y ast.Expr, recv string) bool {
	xi, ok := x.(*ast.Ident)
	if !ok || xi.Name != recv {
		return false
	}
	yi, ok := y.(*ast.Ident)
	return ok && yi.Name == "nil"
}

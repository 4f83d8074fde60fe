package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// resultPackages are the packages whose output reaches simulation results:
// the determinism contracts (detrand, maporder) apply here. The façade and
// hot-path analyzers apply everywhere.
var resultPackages = map[string]bool{
	"repro/internal/cache":     true,
	"repro/internal/coherence": true,
	"repro/internal/core":      true,
	"repro/internal/exec":      true,
	"repro/internal/fatfs":     true,
	"repro/internal/machine":   true,
	"repro/internal/mem":       true,
	"repro/internal/perfctr":   true,
	"repro/internal/sched":     true,
	"repro/internal/sim":       true,
	"repro/internal/stats":     true,
	"repro/internal/telemetry": true,
	"repro/internal/topology":  true,
	"repro/internal/trace":     true,
	"repro/internal/workload":  true,
	"repro/o2":                 true,
}

// internalPath reports whether path names a package under repro/internal.
func internalPath(path string) bool {
	return strings.HasPrefix(path, "repro/internal/") || path == "repro/internal"
}

// calleeFunc resolves the function or method called by call, or nil for
// builtins, conversions, and indirect calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// calleeBuiltin returns the builtin called by call ("make", "append", …),
// or "".
func calleeBuiltin(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// isConversion reports whether call is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// isPkgFunc reports whether f is the package-level function path.name.
func isPkgFunc(f *types.Func, path, name string) bool {
	if f == nil || f.Pkg() == nil || f.Name() != name || f.Pkg().Path() != path {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// pkgPathOf returns the import path of f's package, or "".
func pkgPathOf(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// hasReceiver reports whether f is a method.
func hasReceiver(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// exprMentions reports whether any identifier inside e resolves to obj.
func exprMentions(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// objectOf resolves an identifier's object through either Uses or Defs.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// rootIdent returns the leftmost identifier of an lvalue chain
// (x, x.f, x.f[i].g → x), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

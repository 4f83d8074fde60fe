package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotalloc turns the hot-path benchmarks' 0 allocs/op guarantee
// (bench_hotpath_test.go) into a build-time check: a function whose doc
// comment carries //o2:hotpath may contain no allocating construct. The
// check is intraprocedural and conservative — it flags the source
// constructs that can allocate, whether or not escape analysis would save
// a particular instance:
//
//   - make, new, and growing append
//   - composite literals of slice/map type, and address-taken composite
//     literals (&T{...})
//   - any fmt call, and non-spread calls of variadic functions (the
//     argument slice allocates)
//   - interface boxing: passing, assigning, or returning a non-pointer
//     concrete value where an interface is expected
//   - string concatenation and string<->[]byte/[]rune conversions
//   - function literals and method values (closure allocation)
//
// A construct that is deliberate and amortized (for example the typed
// event heap's append, which reaches steady-state capacity after warmup)
// is annotated //o2:allowalloc "justification" on its line; the
// justification ships in the source next to the cost it defends.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid allocating constructs in functions annotated //o2:hotpath",
	Run:  runHotalloc,
}

func runHotalloc(pass *Pass) error {
	pass.checkDirectiveJustifications("allowalloc", "")
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if pass.funcHotpathDirective(fn) == nil {
				continue
			}
			checkHotFunc(pass, fn)
		}
	}
	return nil
}

// report emits a hotalloc finding unless an //o2:allowalloc directive
// governs its line.
func reportAlloc(pass *Pass, fname string, pos token.Pos, format string, args ...any) {
	if pass.suppressed(pos, "allowalloc", "") {
		return
	}
	args = append(args, fname)
	pass.Reportf(pos, format+" in //o2:hotpath function %s", args...)
}

func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	name := fn.Name.Name
	var results *types.Tuple
	if obj, ok := pass.Info.Defs[fn.Name].(*types.Func); ok {
		results = obj.Type().(*types.Signature).Results()
	}

	// Selector expressions in call position are method calls, not method
	// values; collect them so the method-value check can skip them.
	calleePos := make(map[ast.Expr]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			calleePos[ast.Unparen(call.Fun)] = true
		}
		return true
	})

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, name, n)
		case *ast.FuncLit:
			reportAlloc(pass, name, n.Pos(), "function literal may allocate a closure")
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					reportAlloc(pass, name, n.Pos(), "address-taken composite literal escapes to the heap")
					// The &T{...} report covers the literal itself.
					calleePos[cl] = true
				}
			}
		case *ast.CompositeLit:
			if calleePos[n] {
				return true
			}
			if t := pass.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					reportAlloc(pass, name, n.Pos(), "composite literal of slice/map type allocates")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if b, ok := pass.TypeOf(n).(*types.Basic); ok && b.Info()&types.IsString != 0 {
					reportAlloc(pass, name, n.Pos(), "string concatenation allocates")
				}
			}
		case *ast.SelectorExpr:
			if calleePos[n] {
				return true
			}
			if sel := pass.Info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
				reportAlloc(pass, name, n.Pos(), "method value allocates a bound-method closure")
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if len(n.Rhs) != len(n.Lhs) {
					break
				}
				checkBoxing(pass, name, pass.TypeOf(lhs), n.Rhs[i])
			}
		case *ast.ReturnStmt:
			if results != nil && len(n.Results) == results.Len() {
				for i, res := range n.Results {
					checkBoxing(pass, name, results.At(i).Type(), res)
				}
			}
		}
		return true
	})
}

// checkHotCall classifies one call expression inside a hot function.
func checkHotCall(pass *Pass, fname string, call *ast.CallExpr) {
	switch calleeBuiltin(pass.Info, call) {
	case "make":
		reportAlloc(pass, fname, call.Pos(), "make allocates")
		return
	case "new":
		reportAlloc(pass, fname, call.Pos(), "new allocates")
		return
	case "append":
		reportAlloc(pass, fname, call.Pos(), "append may grow its backing array")
		return
	case "":
	default:
		return // len, cap, copy, delete, min, max: allocation-free
	}

	if isConversion(pass.Info, call) {
		if len(call.Args) == 1 {
			checkHotConversion(pass, fname, call)
		}
		return
	}

	f := calleeFunc(pass.Info, call)
	if f == nil {
		return // calls through function values: checked where the value is built
	}
	if pkgPathOf(f) == "fmt" {
		reportAlloc(pass, fname, call.Pos(), "fmt.%s allocates and boxes its arguments", f.Name())
		return
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return
	}
	fixed := sig.Params().Len()
	if sig.Variadic() {
		fixed--
		if !call.Ellipsis.IsValid() && len(call.Args) > fixed {
			reportAlloc(pass, fname, call.Pos(), "variadic call of %s allocates its argument slice", f.Name())
		}
	}
	for i, arg := range call.Args {
		var pt types.Type
		if i < fixed {
			pt = sig.Params().At(i).Type()
		} else if sig.Variadic() && !call.Ellipsis.IsValid() {
			pt = sig.Params().At(fixed).Type().(*types.Slice).Elem()
		} else {
			break
		}
		checkBoxing(pass, fname, pt, arg)
	}
}

// checkHotConversion flags conversions that copy their operand.
func checkHotConversion(pass *Pass, fname string, call *ast.CallExpr) {
	to, from := pass.TypeOf(call), pass.TypeOf(call.Args[0])
	if to == nil || from == nil {
		return
	}
	if (isStringType(to) && isByteish(from)) || (isByteish(to) && isStringType(from)) {
		reportAlloc(pass, fname, call.Pos(), "string<->slice conversion copies and allocates")
		return
	}
	if isInterfaceType(to) {
		checkBoxing(pass, fname, to, call.Args[0])
	}
}

// checkBoxing reports when a concrete value is converted to an interface
// type in a way that heap-allocates the value's storage. Pointer-shaped
// values (pointers, channels, maps, funcs) fit in the interface word and
// do not allocate.
func checkBoxing(pass *Pass, fname string, target types.Type, val ast.Expr) {
	if target == nil || !isInterfaceType(target) {
		return
	}
	vt := pass.TypeOf(val)
	if vt == nil || isInterfaceType(vt) {
		return
	}
	if b, ok := vt.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	switch vt.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return
	}
	reportAlloc(pass, fname, val.Pos(), "converting %s to an interface boxes the value on the heap", types.TypeString(vt, types.RelativeTo(pass.Pkg)))
}

func isInterfaceType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteish(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// checkDeterminism flags constructs whose behavior varies run-to-run:
//
//   - range over a map where the iteration order can escape — the body
//     prints or writes to any io.Writer (a stream, a builder, a hash),
//     appends to or stores by a position counter into a slice declared
//     outside the loop that is not sorted after the loop in the same
//     function, returns a value derived from the iteration variables, or
//     sends on a channel. Order-insensitive folds (summing counters,
//     filling another map, storing at a position derived from the key)
//     pass.
//   - time.Now / time.Since / time.Until, and the wall-clock timer family
//     time.After / time.Tick / time.NewTimer / time.NewTicker: wall-clock
//     input to a simulator invalidates reproducibility; the event loop
//     owns time. Sweep job bodies and cache-key derivation are the
//     historical offenders — a job deadline from time.After or a cache
//     key salted with time.Since changes results run to run.
//   - importing math/rand (v1 or v2): simulation randomness must come
//     from the seeded, versioned generator in internal/workload.
//
// All three can be waived per line with "//lint:ignore reason" (scope it
// with "//lint:ignore determinism reason" when other analyzers also fire
// on the line).
func checkDeterminism(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				diags = p.diag(diags, imp.Pos(), "determinism",
					fmt.Sprintf("import of %s: simulator randomness must use the seeded generator in internal/workload (rng.go)", path))
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if name := wallClockCall(p, n); name != "" {
					diags = p.diag(diags, n.Pos(), "determinism",
						fmt.Sprintf("time.%s: wall-clock input makes runs non-reproducible; derive time from the event loop", name))
				}
			case *ast.RangeStmt:
				if reason := mapRangeOrderEscapes(p, f, n); reason != "" {
					diags = p.diag(diags, n.Pos(), "determinism",
						fmt.Sprintf("map iteration order %s; collect and sort the keys first", reason))
				}
			}
			return true
		})
	}
	return diags
}

// wallClockCall reports whether call reads the wall clock — directly
// (time.Now/Since/Until) or through a timer (time.After/Tick/NewTimer/
// NewTicker) — returning the function name.
func wallClockCall(p *Package, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj := p.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
		return ""
	}
	switch obj.Name() {
	case "Now", "Since", "Until", "After", "Tick", "NewTimer", "NewTicker":
		return obj.Name()
	}
	return ""
}

// mapRangeOrderEscapes decides whether a range statement iterates a map
// and leaks its iteration order. It returns a human-readable reason, or
// "" when the loop is order-insensitive (or not a map range at all).
func mapRangeOrderEscapes(p *Package, file *ast.File, rng *ast.RangeStmt) string {
	t := p.Info.Types[rng.X].Type
	if t == nil {
		return ""
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return ""
	}
	iterObjs := rangeVarObjects(p, rng)

	var reason string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := emissionCall(p, n); ok {
				reason = "reaches output through " + name
				return false
			}
			if target := appendTarget(p, rng, n); target != nil {
				if !sortedLater(p, file, rng, target) {
					reason = fmt.Sprintf("reaches slice %q via append without a subsequent sort", target.Name())
					return false
				}
			}
		case *ast.AssignStmt:
			if target := indexTarget(p, rng, n, iterObjs); target != nil {
				if !sortedLater(p, file, rng, target) {
					reason = fmt.Sprintf("reaches slice %q by position without a subsequent sort", target.Name())
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if usesAny(p, res, iterObjs) {
					reason = "selects the returned value (first match wins nondeterministically)"
					return false
				}
			}
		case *ast.SendStmt:
			reason = "reaches a channel send"
			return false
		}
		return true
	})
	return reason
}

// rangeVarObjects returns the objects bound to the range's key and value
// variables.
func rangeVarObjects(p *Package, rng *ast.RangeStmt) map[types.Object]bool {
	objs := map[types.Object]bool{}
	for _, expr := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := expr.(*ast.Ident); ok && id.Name != "_" {
			if obj := p.Info.Defs[id]; obj != nil {
				objs[obj] = true
			} else if obj := p.Info.Uses[id]; obj != nil { // "=" instead of ":="
				objs[obj] = true
			}
		}
	}
	return objs
}

// usesAny reports whether expr references any of the given objects.
func usesAny(p *Package, expr ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.Info.Uses[id]; obj != nil && objs[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// emissionCall recognizes calls that emit bytes or records in call
// order: the fmt print family, io.WriteString, the
// Write/WriteString/WriteByte/WriteRune methods of any io.Writer
// (strings.Builder, bytes.Buffer, bufio.Writer, a hash.Hash feeding a
// content key, a file), json.Encoder.Encode (JSONL journals), and
// report.Table.AddRow/AddRowf (rendered reports).
func emissionCall(p *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj := p.Info.Uses[sel.Sel]
	if obj == nil {
		return "", false
	}
	if pkg := obj.Pkg(); pkg != nil {
		switch pkg.Path() {
		case "fmt":
			switch obj.Name() {
			case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
				return "fmt." + obj.Name(), true
			}
		case "io":
			if obj.Name() == "WriteString" {
				return "io.WriteString", true
			}
		}
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", false
	}
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		// Named by the operand's static type: a hash.Hash's Write is
		// declared on the io.Writer it embeds.
		if t := p.Info.Types[sel.X].Type; t != nil && isWriter(t) {
			name := types.TypeString(t, func(p *types.Package) string { return p.Name() })
			return strings.TrimPrefix(name, "*") + "." + fn.Name(), true
		}
	case "Encode", "AddRow", "AddRowf":
		recv := sig.Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		switch types.TypeString(recv, nil) + "." + fn.Name() {
		case "encoding/json.Encoder.Encode":
			return "json.Encoder.Encode", true
		case "repro/internal/report.Table.AddRow", "repro/internal/report.Table.AddRowf":
			return "report.Table." + fn.Name(), true
		}
	}
	return "", false
}

// isWriter reports whether t (or a pointer to it) has io.Writer's
// Write([]byte) (int, error) method.
func isWriter(t types.Type) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "Write")
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Params().Len() != 1 || sig.Results().Len() != 2 {
		return false
	}
	param, ok := sig.Params().At(0).Type().(*types.Slice)
	return ok && types.Identical(param.Elem(), types.Typ[types.Byte]) &&
		types.Identical(sig.Results().At(0).Type(), types.Typ[types.Int]) &&
		types.Identical(sig.Results().At(1).Type(), types.Universe.Lookup("error").Type())
}

// appendTarget returns the object a call like "x = append(x, ...)"
// assigns to, when that object is declared outside the range statement;
// nil otherwise.
func appendTarget(p *Package, rng *ast.RangeStmt, call *ast.CallExpr) types.Object {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return nil
	}
	if b, ok := p.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	if len(call.Args) == 0 {
		return nil
	}
	base, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil
	}
	obj := p.Info.Uses[base]
	if obj == nil {
		return nil
	}
	// Declared inside the loop body -> per-iteration slice, order-safe
	// unless it escapes some other way (covered by the other rules).
	if obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
		return nil
	}
	return obj
}

// indexTarget returns the slice or array an assignment like
// "out[i] = k" stores an iteration variable into, when the container is
// declared outside the range statement and the position does not derive
// from the iteration variables (a running counter, so the element lands
// where the visit order puts it); nil otherwise.
func indexTarget(p *Package, rng *ast.RangeStmt, as *ast.AssignStmt, iterObjs map[types.Object]bool) types.Object {
	if as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return nil
	}
	for i, lhs := range as.Lhs {
		ix, ok := lhs.(*ast.IndexExpr)
		if !ok || usesAny(p, ix.Index, iterObjs) || !usesAny(p, as.Rhs[i], iterObjs) {
			continue
		}
		base, ok := ix.X.(*ast.Ident)
		if !ok {
			continue
		}
		obj := p.Info.Uses[base]
		if obj == nil || (obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()) {
			continue
		}
		switch obj.Type().Underlying().(type) {
		case *types.Slice, *types.Array:
			return obj
		}
	}
	return nil
}

// sortedLater reports whether the enclosing function passes target to a
// sort.* or slices.Sort* call after the range statement, the
// collect-then-sort idiom that restores determinism. A sort before the
// loop sorts nothing the loop produced.
func sortedLater(p *Package, file *ast.File, rng *ast.RangeStmt, target types.Object) bool {
	fn := enclosingFuncBody(file, rng)
	if fn == nil {
		return false
	}
	sorted := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := p.Info.Uses[sel.Sel]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		pkg := obj.Pkg().Path()
		isSort := pkg == "sort" || (pkg == "slices" && strings.HasPrefix(obj.Name(), "Sort"))
		if !isSort {
			return true
		}
		for _, arg := range call.Args {
			if usesAny(p, arg, map[types.Object]bool{target: true}) {
				sorted = true
				break
			}
		}
		return !sorted
	})
	return sorted
}

// enclosingFuncBody finds the innermost function body containing n.
func enclosingFuncBody(file *ast.File, n ast.Node) *ast.BlockStmt {
	var body *ast.BlockStmt
	ast.Inspect(file, func(node ast.Node) bool {
		if node == nil {
			return false
		}
		if node.Pos() > n.Pos() || node.End() < n.End() {
			return false
		}
		switch fn := node.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				body = fn.Body
			}
		case *ast.FuncLit:
			body = fn.Body
		}
		return true
	})
	return body
}

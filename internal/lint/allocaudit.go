package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// allocaudit statically complements the runtime TestSteadyStateAllocFree
// pin: a function marked
//
//	//hotpath:allocfree
//
// in its doc comment may not contain heap-allocating constructs, so an
// alloc regression on the steady-state cycle path is caught at lint time
// with a file:line instead of as an opaque benchmark delta. The check is
// not transitive — callees are audited only if they carry the mark
// themselves — and flags, per marked function body:
//
//   - append that can grow its backing array. Allowed: the first argument
//     is a reslice ("x[:0]", "x[:i]"); a self-append to a field
//     ("b.stalled = append(b.stalled, v)" — a long-lived scratch buffer whose
//     growth amortizes to zero); a self-append to a local initialized
//     from a reslice ("t := b.targets[:0]; t = append(t, v)").
//   - make, new, map/slice composite literals, and &T{} (escaping
//     composites).
//   - func literals (closure allocation).
//   - any fmt call, string concatenation, and string<->[]byte/[]rune
//     conversions.
//   - interface boxing: passing or assigning a concrete non-pointer-shaped
//     value (basic, string, struct, array, slice) to an interface.
//   - go and defer statements.
//
// Arguments of panic(...) are exempt: a panicking hot path is terminal,
// so its formatting may allocate. Everything else is waived per line with
// "//lint:ignore allocaudit reason".
const hotpathDirective = "hotpath:"

// checkAllocFree audits every marked function in the package.
func checkAllocFree(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			marked := false
			for _, c := range fd.Doc.List {
				text := strings.TrimPrefix(c.Text, "//")
				payload, found := strings.CutPrefix(text, hotpathDirective)
				if !found {
					continue
				}
				if payload != "allocfree" {
					diags = p.diag(diags, c.Pos(), "allocaudit",
						fmt.Sprintf("unknown //hotpath: directive %q (only allocfree is defined)", payload))
					continue
				}
				marked = true
			}
			if marked && fd.Body != nil {
				diags = auditAllocFree(p, fd, diags)
			}
		}
	}
	return diags
}

// auditAllocFree scans one marked function body.
func auditAllocFree(p *Package, fd *ast.FuncDecl, diags []Diagnostic) []Diagnostic {
	name := funcDeclName(fd)
	flag := func(pos token.Pos, what string) {
		diags = p.diag(diags, pos, "allocaudit",
			fmt.Sprintf("%s in //hotpath:allocfree function %s", what, name))
	}
	capped := cappedLocals(p, fd.Body)
	panics := panicRanges(p, fd.Body)
	exempt := func(pos token.Pos) bool {
		for _, r := range panics {
			if pos >= r[0] && pos < r[1] {
				return true
			}
		}
		return false
	}
	selfAppends := selfAppendCalls(p, fd.Body, capped)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			flag(n.Pos(), "func literal (closure allocation)")
			return false // the closure body runs in an unknown context
		case *ast.GoStmt:
			flag(n.Pos(), "go statement (goroutine + closure allocation)")
		case *ast.DeferStmt:
			flag(n.Pos(), "defer statement (defer record allocation)")
		case *ast.CompositeLit:
			if exempt(n.Pos()) {
				return true
			}
			t := p.Info.Types[n].Type
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				flag(n.Pos(), "map literal")
			case *types.Slice:
				flag(n.Pos(), "slice literal")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND && !exempt(n.Pos()) {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					flag(n.Pos(), "&composite{} (escaping composite literal)")
				}
			}
		case *ast.BinaryExpr:
			// Constant concatenation folds at compile time; only
			// runtime concatenation allocates.
			if n.Op == token.ADD && !exempt(n.Pos()) &&
				isStringType(p.Info.Types[n].Type) && p.Info.Types[n].Value == nil {
				flag(n.Pos(), "string concatenation")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 &&
				isStringType(p.Info.Types[n.Lhs[0]].Type) && !exempt(n.Pos()) {
				flag(n.Pos(), "string concatenation")
			}
		case *ast.CallExpr:
			if exempt(n.Pos()) {
				return true
			}
			diags = auditCall(p, n, name, capped, selfAppends, diags)
		}
		return true
	})
	return diags
}

// auditCall applies the call-shaped rules (builtins, fmt, conversions,
// interface boxing).
func auditCall(p *Package, call *ast.CallExpr, fname string,
	capped map[types.Object]bool, selfAppends map[*ast.CallExpr]bool, diags []Diagnostic) []Diagnostic {
	flag := func(pos token.Pos, what string) {
		diags = p.diag(diags, pos, "allocaudit",
			fmt.Sprintf("%s in //hotpath:allocfree function %s", what, fname))
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := p.Info.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				if !appendAllowed(call, capped, selfAppends, p) {
					flag(call.Pos(), "append that may grow its backing array (reslice the target or preallocate)")
				}
			case "make":
				flag(call.Pos(), "make")
			case "new":
				flag(call.Pos(), "new")
			}
			return diags
		}
	case *ast.SelectorExpr:
		if obj := p.Info.Uses[fun.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			flag(call.Pos(), "fmt."+obj.Name()+" call")
			return diags
		}
	}
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if allocConversion(tv.Type, p.Info.Types[call.Args[0]].Type) {
			flag(call.Pos(), "string conversion (copies the contents)")
		}
		return diags
	}
	diags = auditBoxing(p, call, fname, diags)
	return diags
}

// auditBoxing flags concrete non-pointer-shaped arguments passed to
// interface-typed parameters.
func auditBoxing(p *Package, call *ast.CallExpr, fname string, diags []Diagnostic) []Diagnostic {
	tv, ok := p.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return diags
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return diags
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			if sl, ok := last.Underlying().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := p.Info.Types[arg].Type
		if boxingAllocates(at) {
			diags = p.diag(diags, arg.Pos(), "allocaudit",
				fmt.Sprintf("interface boxing of %s in //hotpath:allocfree function %s", types.TypeString(at, nil), fname))
		}
	}
	return diags
}

// boxingAllocates reports whether storing a value of concrete type t in an
// interface needs a heap allocation: pointer-shaped kinds (pointers, maps,
// channels, funcs) fit in the interface word; everything else is copied to
// the heap.
func boxingAllocates(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() != types.UntypedNil
	case *types.Struct, *types.Array, *types.Slice:
		return true
	}
	return false
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// allocConversion reports whether a conversion from 'from' to 'to' copies
// (string <-> []byte / []rune).
func allocConversion(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	toStr, fromStr := isStringType(to), isStringType(from)
	_, toSlice := to.Underlying().(*types.Slice)
	_, fromSlice := from.Underlying().(*types.Slice)
	return (toStr && fromSlice) || (fromStr && toSlice)
}

// appendAllowed reports whether an append call cannot grow a fresh
// backing array on the steady-state path.
func appendAllowed(call *ast.CallExpr, capped map[types.Object]bool, selfAppends map[*ast.CallExpr]bool, p *Package) bool {
	if len(call.Args) == 0 {
		return false
	}
	if _, ok := call.Args[0].(*ast.SliceExpr); ok {
		return true // append(x[:0], ...) / append(x[:i], ...)
	}
	if selfAppends[call] {
		return true
	}
	if id, ok := call.Args[0].(*ast.Ident); ok {
		if obj := p.Info.Uses[id]; obj != nil && capped[obj] {
			return true
		}
	}
	return false
}

// selfAppendCalls finds "x = append(x, ...)" assignments where x is a
// field selector (a long-lived scratch buffer) or a capped local.
func selfAppendCalls(p *Package, body *ast.BlockStmt, capped map[types.Object]bool) map[*ast.CallExpr]bool {
	out := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "append" {
			return true
		}
		if b, ok := p.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
			return true
		}
		if types.ExprString(as.Lhs[0]) != types.ExprString(call.Args[0]) {
			return true
		}
		// Self-append to a field: amortized growth of owned scratch state.
		if _, isSel := as.Lhs[0].(*ast.SelectorExpr); isSel {
			out[call] = true
		}
		return true
	})
	return out
}

// cappedLocals collects local variables initialized from a reslice
// ("t := b.targets[:0]"), whose in-place appends reuse the parent's
// capacity.
func cappedLocals(p *Package, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			if _, ok := rhs.(*ast.SliceExpr); !ok {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if obj := p.Info.Defs[id]; obj != nil {
				out[obj] = true
			} else if obj := p.Info.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// panicRanges returns the [pos, end) source ranges of panic(...) calls.
func panicRanges(p *Package, body *ast.BlockStmt) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "panic" {
			return true
		}
		if b, ok := p.Info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
			out = append(out, [2]token.Pos{call.Pos(), call.End()})
		}
		return true
	})
	return out
}

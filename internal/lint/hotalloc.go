package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAllocAnalyzer is the advisory allocation gate for the simulator's
// hot loops. Functions carrying the //pftk:hotpath directive in their doc
// comment declare "zero steady-state allocations" (the contract pinned by
// the AllocsPerRun guards); inside them the analyzer flags the two
// allocation patterns that most often sneak back in during refactors:
//
//   - function literals that capture locals — each call allocates a
//     closure; hoist the callback into a stored field or use
//     Engine.ScheduleLanePacket so the payload rides with the event
//     instead.
//   - calls to the append builtin — growth reallocates the backing
//     array; pre-size the buffer or guard growth off the steady state,
//     then record the reasoning in a //pftklint:ignore hotalloc
//     directive (the justification is mandatory).
//
// Non-capturing literals are allowed: they compile to static funcvals
// and allocate nothing.
var HotAllocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "flags capturing closures and append calls inside //pftk:hotpath functions",
	Run:  runHotAlloc,
}

// hotpathDirective marks a function whose steady state must not
// allocate.
const hotpathDirective = "//pftk:hotpath"

// isHotpath reports whether the declaration's doc comment carries the
// hotpath directive.
func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == hotpathDirective {
			return true
		}
	}
	return false
}

func runHotAlloc(p *Pass) {
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpath(fd) {
				continue
			}
			name := fd.Name.Name
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					if v := capturedVar(info, n, fd); v != nil {
						p.Reportf(n.Pos(), "hot path %s: function literal captures %s, allocating a closure per call; hoist it into a stored callback or pass the payload through ScheduleLanePacket", name, v.Name())
					}
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" {
						if _, builtin := info.Uses[id].(*types.Builtin); builtin {
							p.Reportf(n.Pos(), "hot path %s: append may grow its backing array; pre-size the buffer or keep growth off the steady state (justify with an ignore directive)", name)
						}
					}
				}
				return true
			})
		}
	}
}

// capturedVar returns a variable the literal captures from the enclosing
// function — declared inside outer (receiver, parameter or local) but
// outside the literal itself — or nil for a static, capture-free
// literal. Package-level variables are not captures: referencing only
// globals leaves the funcval static.
func capturedVar(info *types.Info, lit *ast.FuncLit, outer *ast.FuncDecl) *types.Var {
	var captured *types.Var
	ast.Inspect(lit, func(n ast.Node) bool {
		if captured != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pos() == token.NoPos {
			return true
		}
		if v.Pos() >= outer.Pos() && v.Pos() < lit.Pos() {
			captured = v
			return false
		}
		return true
	})
	return captured
}

package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"

	"vstore/internal/analysis/flow"
)

// DotCheck enforces the dot-stamping discipline of DESIGN.md §11:
// dots name client base-table writes and nothing else.
//
//  1. StampDot is the coordinator's dot allocator, and only the
//     client-put path may call it — a StampDot anywhere else mints a
//     causal event for an internal write, which sibling detection
//     would then double-count. Callers outside client.go (and the
//     coordinator package itself) are diagnostics.
//
//  2. On the view/backfill/propagation paths (internal/core,
//     internal/backfill and internal/sim, whose backfill scenario
//     forwards quorum-read base cells toward a view), a model.Cell
//     copied from a read row and placed into a ColumnUpdate must flow
//     through the central strip — either the placement is dominated in
//     the CFG by a cell.StripDot() call, or the destination slice is
//     handed to a stripping helper: a same-package function whose body
//     passes its updates parameter to model.StripDots or to core.TaskFor
//     (the one-hop summary; a Task's cells are only ever written by the
//     shared round's put, which strips). Constructing a cell with
//     explicit Dot/Ctx fields there is flagged outright. The sim's
//     client.go is exempt like the root package's: it is the simulated
//     client-put path, where dots are minted.
//
//  3. Stripping must go through model.Cell.StripDot / model.StripDots
//     rather than zeroing .Dot/.Ctx fields inline, so the strip
//     discipline has exactly one implementation to audit and evolve.
var DotCheck = &Pass{
	Name: "dotcheck",
	Doc:  "StampDot outside the client-put path; unstripped cells forwarded on view/backfill/propagation paths",
	Run:  runDotCheck,
}

func runDotCheck(u *Unit) {
	d := &dotCheck{u: u}
	d.checkStampDotCallers()
	if u.InDirs("internal/core", "internal/backfill", "internal/sim") {
		d.checkDerivedWrites()
	}
}

type dotCheck struct {
	u *Unit
	// strippers is the one-hop summary: same-package functions whose
	// body strips a []model.ColumnUpdate parameter.
	strippers map[*types.Func]bool
}

// checkStampDotCallers flags every StampDot call outside the
// sanctioned client-put path: client.go in the root package, and
// internal/coord itself (definition plus allocator plumbing).
func (d *dotCheck) checkStampDotCallers() {
	u := d.u
	if u.InDirs("internal/coord") {
		return
	}
	for _, file := range u.Pkg.Files {
		if d.isClientPutPath(file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := u.calleeFunc(call)
			if fn != nil && fn.Name() == "StampDot" && fn.Pkg() != nil &&
				fn.Pkg().Path() == u.ModPath+"/internal/coord" {
				u.Reportf(call.Pos(), "StampDot outside the coordinator client-put path; only client base-table writes are causal events — internal view/backfill/propagation writes must stay unstamped (DESIGN.md §11)")
			}
			return true
		})
	}
}

// isClientPutPath reports the files sanctioned to mint dots: client.go
// of the root package, and of the simulator (its simulated clients).
func (d *dotCheck) isClientPutPath(file *ast.File) bool {
	base := filepath.Base(d.u.Pkg.Fset.Position(file.Pos()).Filename)
	return base == "client.go" && (d.u.RelDir == "" || d.u.RelDir == "internal/sim")
}

// checkDerivedWrites runs rules 2 and 3 over the view-maintenance
// packages.
func (d *dotCheck) checkDerivedWrites() {
	d.collectStrippers()
	for _, file := range d.u.Pkg.Files {
		if d.isClientPutPath(file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			d.checkInlineStrips(fd.Body)
			d.checkPlacements(fd.Body)
		}
	}
}

// collectStrippers builds the one-hop summary: a function is a
// stripping helper when its body hands one of its parameters to
// model.StripDots (Round.put is the canonical one) or to core.TaskFor.
func (d *dotCheck) collectStrippers() {
	d.strippers = map[*types.Func]bool{}
	for _, file := range d.u.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := d.u.Pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			params := map[string]bool{}
			if fd.Type.Params != nil {
				for _, f := range fd.Type.Params.List {
					for _, name := range f.Names {
						params[name.Name] = true
					}
				}
			}
			found := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if found {
					return false
				}
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok || !d.isStripDotsCall(call) {
					return true
				}
				for _, arg := range call.Args {
					if id, ok := ast.Unparen(arg).(*ast.Ident); ok && params[id.Name] {
						found = true
					}
				}
				return true
			})
			if found {
				d.strippers[fn] = true
			}
		}
	}
}

// isStripDotsCall reports a call whose updates argument is stripped
// before any of it reaches a coordinator: model.StripDots itself, or
// core.TaskFor, whose Task only ever writes through the stripping put
// of the shared propagation round.
func (d *dotCheck) isStripDotsCall(call *ast.CallExpr) bool {
	fn := d.u.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case d.u.ModPath + "/internal/model":
		return fn.Name() == "StripDots"
	case d.u.ModPath + "/internal/core":
		return fn.Name() == "TaskFor"
	}
	return false
}

// checkInlineStrips flags rule 3: zeroing Dot/Ctx fields inline
// instead of calling the central strip.
func (d *dotCheck) checkInlineStrips(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range assign.Lhs {
			sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Dot" && sel.Sel.Name != "Ctx") {
				continue
			}
			if d.isCellExpr(sel.X) {
				d.u.Reportf(sel.Pos(), "inline %s zeroing decentralizes the dot-strip; use model.Cell.StripDot (or model.StripDots for a batch) so the strip discipline has one implementation (DESIGN.md §11)", sel.Sel.Name)
			}
		}
		return true
	})
}

// isCellExpr reports whether e's static type is model.Cell (or a
// pointer to it).
func (d *dotCheck) isCellExpr(e ast.Expr) bool {
	t := d.u.Pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Cell" && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == d.u.ModPath+"/internal/model"
}

// placement is one ColumnUpdate literal whose Cell field copies an
// existing cell value rather than constructing a fresh one.
type placement struct {
	lit  *ast.CompositeLit
	cell ast.Expr   // the copied expression (ident or selector)
	path []ast.Node // enclosing nodes, outermost first
}

// checkPlacements runs rule 2 over one function body: find every
// copied-cell placement and require a strip on its path to the
// coordinator.
func (d *dotCheck) checkPlacements(body *ast.BlockStmt) {
	var placements []placement
	var dotted []*ast.CompositeLit
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		lit, ok := n.(*ast.CompositeLit)
		if !ok || !d.isColumnUpdateLit(lit) {
			return true
		}
		for _, elt := range lit.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok || key.Name != "Cell" {
				continue
			}
			switch v := ast.Unparen(kv.Value).(type) {
			case *ast.CompositeLit:
				if hasDotField(v) {
					dotted = append(dotted, v)
				}
			case *ast.Ident, *ast.SelectorExpr:
				if d.isCellExpr(kv.Value) {
					placements = append(placements, placement{
						lit: lit, cell: kv.Value,
						path: append([]ast.Node(nil), stack...),
					})
				}
			}
		}
		return true
	})
	for _, lit := range dotted {
		d.u.Reportf(lit.Pos(), "cell constructed with explicit Dot/Ctx metadata on a view-maintenance path; only the coordinator client-put path mints dots (DESIGN.md §11)")
	}
	if len(placements) == 0 {
		return
	}
	var g *flow.Graph
	var reaches map[string]*flow.Reach
	for _, p := range placements {
		if d.placementSanctioned(body, p) {
			continue
		}
		// Fall back to the dataflow check: a StripDot() of the same
		// expression must dominate the placement.
		if g == nil {
			g = flow.Build(body)
			reaches = map[string]*flow.Reach{}
		}
		key := types.ExprString(p.cell)
		r, ok := reaches[key]
		if !ok {
			r = g.MustReach(func(n ast.Node) bool { return d.isStripOf(n, key) })
			reaches[key] = r
		}
		if !r.At(p.lit) {
			d.u.Reportf(p.cell.Pos(), "cell %s is forwarded on a view-maintenance path without passing the central dot-strip; call %s.StripDot() first, route the slice through a stripping helper, or sanction with a reason (DESIGN.md §11)", key, key)
		}
	}
}

// placementSanctioned reports whether the placement's destination is
// handed to a stripping helper: the literal is an argument of a
// stripper call, or it is appended to / assigned into a slice that the
// function later passes to one.
func (d *dotCheck) placementSanctioned(body *ast.BlockStmt, p placement) bool {
	for i := len(p.path) - 1; i >= 0; i-- {
		switch n := p.path[i].(type) {
		case *ast.CallExpr:
			if d.isStripperCall(n) {
				return true
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 0 {
				dest := types.ExprString(n.Args[0])
				return d.passedToStripper(body, dest)
			}
		case *ast.AssignStmt:
			// e.g. upd := []model.ColumnUpdate{{...}}
			if len(n.Lhs) == 1 {
				return d.passedToStripper(body, types.ExprString(n.Lhs[0]))
			}
		}
	}
	return false
}

// isStripperCall reports a call to a one-hop stripping helper or to
// model.StripDots itself.
func (d *dotCheck) isStripperCall(call *ast.CallExpr) bool {
	if d.isStripDotsCall(call) {
		return true
	}
	fn := d.u.calleeFunc(call)
	return fn != nil && d.strippers[fn]
}

// passedToStripper reports whether the function passes an expression
// printing as dest to a stripping helper anywhere in its body. This is
// a reachability (not dominance) question — the placement builds the
// slice, the helper strips it later — so a simple syntactic scan is
// enough and conservative enough: a stripper that is only reachable on
// some paths still strips on every path that reaches the coordinator,
// because the helper IS the coordinator write.
func (d *dotCheck) passedToStripper(body *ast.BlockStmt, dest string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || !d.isStripperCall(call) {
			return true
		}
		for _, arg := range call.Args {
			if types.ExprString(arg) == dest {
				found = true
			}
		}
		return true
	})
	return found
}

// isStripOf reports whether n is a call of the form <key>.StripDot().
func (d *dotCheck) isStripOf(n ast.Node, key string) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "StripDot" {
		return false
	}
	return types.ExprString(sel.X) == key
}

// isColumnUpdateLit reports whether lit's type is model.ColumnUpdate
// (directly or as an element of a slice literal, where the type is
// elided).
func (d *dotCheck) isColumnUpdateLit(lit *ast.CompositeLit) bool {
	tv, ok := d.u.Pkg.Info.Types[lit]
	if !ok {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	return ok && named.Obj().Name() == "ColumnUpdate" && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == d.u.ModPath+"/internal/model"
}

// hasDotField reports whether a composite literal sets Dot or Ctx.
func hasDotField(lit *ast.CompositeLit) bool {
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && (key.Name == "Dot" || key.Name == "Ctx") {
			return true
		}
	}
	return false
}

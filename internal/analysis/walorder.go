package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"vstore/internal/analysis/flow"
)

// WalOrder enforces log-before-apply (DESIGN.md §9): on a durable
// path, a write must reach the WAL before it reaches the memtable, or
// a crash between the two acknowledges a write recovery cannot
// replay. The pass runs over the storage engine's home turf —
// internal/lsm, internal/wal, and the root package's durable.go — and
// checks, in each function's control-flow graph, that every memtable
// apply is dominated by a WAL append:
//
//   - an append is a call to the lsm.Persist hook (AppendMutations) or
//     to an internal/wal Append*/Log* function, directly or through a
//     one-hop summary of a same-package helper that appends;
//   - a durability guard counts too: `if <persist/wal hook> != nil {
//     append... }` generates the fact at its condition, because the
//     path that skips the append is exactly the path that is not
//     durable;
//   - an apply is a call to an internal/memtable function named Apply
//     — (*memtable.Memtable).Apply or the row handle's
//     (*memtable.Row).Apply — directly or through a one-hop summary of
//     a same-package helper that applies without appending.
//
// Replay paths (recovery applies entries that are already durable in
// the log being replayed) are the sanctioned exception, annotated
// //lint:ignore walorder with the reason.
var WalOrder = &Pass{
	Name: "walorder",
	Doc:  "memtable applies on durable paths not dominated by a WAL append (log-before-apply)",
	Run:  runWalOrder,
}

func runWalOrder(u *Unit) {
	inScope := u.InDirs("internal/lsm", "internal/wal")
	rootPkg := u.RelDir == ""
	if !inScope && !rootPkg {
		return
	}

	w := &walOrder{u: u, summaries: map[*types.Func]walSummary{}}

	// Pass 1: one-hop summaries of every function in scope, so a call
	// to a same-package helper is classified like its body.
	for _, file := range u.Pkg.Files {
		if rootPkg && !w.isDurableFile(file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := u.Pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			w.summaries[fn] = walSummary{
				appends: w.bodyContains(fd.Body, w.isDirectAppend),
				applies: w.bodyContains(fd.Body, w.isDirectApply),
			}
		}
	}

	// Pass 2: the dataflow check per function (and per closure — a
	// closure runs on its own schedule, so it needs its own appends).
	for _, file := range u.Pkg.Files {
		if rootPkg && !w.isDurableFile(file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w.checkBody(fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					w.checkBody(lit.Body)
				}
				return true
			})
		}
	}
}

type walSummary struct {
	appends bool
	applies bool
}

type walOrder struct {
	u         *Unit
	summaries map[*types.Func]walSummary
}

// isDurableFile restricts the root package to durable.go, the file
// that owns the public durability surface.
func (w *walOrder) isDurableFile(file *ast.File) bool {
	name := w.u.Pkg.Fset.Position(file.Pos()).Filename
	return filepath.Base(name) == "durable.go"
}

// checkBody verifies every apply in one function body (closures
// excluded — they are checked separately) against the must-reach
// lattice of append facts.
func (w *walOrder) checkBody(body *ast.BlockStmt) {
	applies := w.collectApplies(body)
	if len(applies) == 0 {
		return
	}
	guards := w.collectGuards(body)
	gen := func(n ast.Node) bool {
		if guards[n] {
			return true
		}
		call, ok := n.(*ast.CallExpr)
		return ok && w.isAppend(call)
	}
	g := flow.Build(body)
	reach := g.MustReach(gen)
	for _, call := range applies {
		if !reach.At(call) {
			w.u.Reportf(call.Pos(), "memtable apply is not dominated by a WAL append; log-before-apply (DESIGN.md §9) — append first, or annotate a replay path whose entries are already durable")
		}
	}
}

// collectGuards finds durability guards: `if <hook> != nil { ...
// append ... }`. The guard's condition generates the append fact on
// BOTH outgoing paths, because the path that skips the append is
// exactly the path where no durability hook is configured — the
// memory-only mode where there is no log to order against.
func (w *walOrder) collectGuards(body *ast.BlockStmt) map[ast.Node]bool {
	guards := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if w.isHookNilCheck(ifs.Cond) && w.bodyContains(ifs.Body, w.isAppendPred) {
			guards[ifs.Cond] = true
		}
		return true
	})
	return guards
}

func (w *walOrder) isAppendPred(call *ast.CallExpr) bool { return w.isAppend(call) }

// isHookNilCheck reports whether cond contains `X != nil` where X is a
// durability hook: an lsm.Persist value or anything from internal/wal.
func (w *walOrder) isHookNilCheck(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || found {
			return !found
		}
		if be.Op != token.NEQ {
			return true
		}
		for _, pair := range [][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
			if id, ok := ast.Unparen(pair[1]).(*ast.Ident); ok && id.Name == "nil" && w.isHookType(pair[0]) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isHookType reports whether e's static type is a durability hook.
func (w *walOrder) isHookType(e ast.Expr) bool {
	t := w.u.Pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg := named.Obj().Pkg().Path()
	return named.Obj().Name() == "Persist" && pkg == w.u.ModPath+"/internal/lsm" ||
		pkg == w.u.ModPath+"/internal/wal"
}

// collectApplies gathers the apply calls directly in body, skipping
// nested closures.
func (w *walOrder) collectApplies(body *ast.BlockStmt) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && w.isApply(call) {
			out = append(out, call)
		}
		return true
	})
	return out
}

// isDirectApply reports a call to any internal/memtable function named
// Apply: the memtable's and its row handle's.
func (w *walOrder) isDirectApply(call *ast.CallExpr) bool {
	fn := w.u.calleeFunc(call)
	if fn == nil || fn.Name() != "Apply" {
		return false
	}
	return fn.Pkg() != nil && fn.Pkg().Path() == w.u.ModPath+"/internal/memtable"
}

// isApply additionally treats a call to a same-package helper that
// applies without appending as an apply (the one-hop summary).
func (w *walOrder) isApply(call *ast.CallExpr) bool {
	if w.isDirectApply(call) {
		return true
	}
	fn := w.u.calleeFunc(call)
	if fn == nil {
		return false
	}
	if s, ok := w.summaries[fn]; ok {
		return s.applies && !s.appends
	}
	return false
}

// isDirectAppend reports a WAL append: the lsm.Persist hook or an
// internal/wal Append*/Log* entry point.
func (w *walOrder) isDirectAppend(call *ast.CallExpr) bool {
	fn := w.u.calleeFunc(call)
	if fn == nil {
		return false
	}
	if fn.Name() == "AppendMutations" {
		return true
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == w.u.ModPath+"/internal/wal" &&
		(strings.HasPrefix(fn.Name(), "Append") || strings.HasPrefix(fn.Name(), "Log")) {
		return true
	}
	return false
}

// isAppend additionally accepts one-hop summaries: a call to a
// same-package helper whose body appends.
func (w *walOrder) isAppend(call *ast.CallExpr) bool {
	if w.isDirectAppend(call) {
		return true
	}
	fn := w.u.calleeFunc(call)
	if fn == nil {
		return false
	}
	if s, ok := w.summaries[fn]; ok {
		return s.appends
	}
	return false
}

// bodyContains reports whether pred matches any call directly in body
// (closures excluded: their bodies run on their own schedule).
func (w *walOrder) bodyContains(body *ast.BlockStmt, pred func(*ast.CallExpr) bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && pred(call) {
			found = true
			return false
		}
		return true
	})
	return found
}

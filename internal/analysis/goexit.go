package analysis

import (
	"go/ast"
	"go/types"
)

// GoExit flags unmanaged goroutines: a `go` statement whose work has
// no visible lifecycle signal. A goroutine that neither watches a
// cancellation source (context.Context or a done/quit channel) nor
// reports completion (sync.WaitGroup) cannot be shut down or waited
// for — in a long-running store that is a leak that outlives Close and
// keeps touching freed state (DESIGN.md §14).
//
// A goroutine is considered managed when:
//
//   - its closure references a context.Context value, or
//   - its closure touches any channel (send, receive, range, select,
//     close — a channel in scope is a lifecycle rendezvous), or
//   - its closure calls a sync.WaitGroup method (Done/Add), or
//   - for `go f(args...)`, an argument carries a lifecycle signal
//     (context, channel, or *sync.WaitGroup), or f is a same-package
//     function whose body passes the same test (one-hop summary).
//
// In the packages the simulator hosts on one thread of control
// (oneThread, see clockcheck) every go statement is flagged, managed or
// not: background work there starts through coord.Coordinator.Go, which
// is a goroutine on a goroutine fabric and a scheduled process on the
// simulator's.
//
// main packages are NOT exempt: a process-lifetime goroutine there is
// usually fine (it dies with the process), but that is a per-site
// judgment, recorded as a //lint:ignore with the reason.
var GoExit = &Pass{
	Name: "goexit",
	Doc:  "go statements with no lifecycle signal (no context, done channel, or WaitGroup); any go statement in internal/core, internal/locks and internal/backfill",
	Run:  runGoExit,
}

func runGoExit(u *Unit) {
	g := &goExit{u: u}
	for _, file := range u.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if u.InDirs(oneThread...) {
				u.Reportf(gs.Pos(), "go statement in a package the simulator hosts: a goroutine of its own cannot be hosted on one thread of control; start background work with coord.Coordinator.Go (DESIGN.md §6)")
			} else if !g.isManaged(gs.Call, 1) {
				u.Reportf(gs.Pos(), "goroutine has no lifecycle signal: closure references no context.Context, channel, or sync.WaitGroup — it cannot be cancelled or waited for (DESIGN.md §14)")
			}
			return true
		})
	}
}

type goExit struct {
	u *Unit
}

// isManaged reports whether the spawned call carries a lifecycle
// signal. hops bounds the interprocedural walk into same-package
// callees.
func (g *goExit) isManaged(call *ast.CallExpr, hops int) bool {
	// go func() { ... }() — judge the closure body.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		if g.bodyManaged(lit) {
			return true
		}
		// The closure may only forward args; fall through to check them.
	}

	// Any lifecycle-typed argument (or receiver) is a signal handed to
	// the callee.
	for _, arg := range call.Args {
		if g.isLifecycleExpr(arg) {
			return true
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		// A method call: the receiver may own the lifecycle machinery
		// (e.g. s.run() selecting on s.done). Be conservative and look
		// one hop into the method body if it is in this package.
		if g.isLifecycleExpr(sel.X) {
			return true
		}
	}

	if hops <= 0 {
		return false
	}
	fn := g.u.calleeFunc(call)
	if fn == nil {
		// Unresolvable (builtin, dynamic); don't guess.
		return false
	}
	if fn.Pkg() == nil || fn.Pkg() != g.u.Pkg.Types {
		// Cross-package callee: its body is out of reach. Treat an
		// exported lifecycle as the callee's own concern only when a
		// signal was passed in, which was already checked above — so an
		// opaque call with no signal is unmanaged.
		return false
	}
	body := g.declBody(fn)
	if body == nil {
		return false
	}
	return g.blockManaged(body, hops-1)
}

// bodyManaged judges a closure: managed if its body (including nested
// literals, which run on the same goroutine unless go'd again —
// nested go statements are flagged on their own) touches a lifecycle
// signal.
func (g *goExit) bodyManaged(lit *ast.FuncLit) bool {
	// A closure that declares a lifecycle parameter and is invoked with
	// one is caught by the argument scan in isManaged; here we look at
	// the body for free or parameter references alike.
	return g.blockManaged(lit.Body, 1)
}

// blockManaged scans a function body for lifecycle signals.
func (g *goExit) blockManaged(body *ast.BlockStmt, hops int) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt:
			found = true
		case *ast.Ident:
			if g.isLifecycleExpr(n) {
				found = true
			}
		case *ast.CallExpr:
			if fn := g.u.calleeFunc(n); fn != nil {
				if g.isWaitGroupMethod(fn) {
					found = true
					return false
				}
				if hops > 0 && fn.Pkg() == g.u.Pkg.Types {
					if b := g.declBody(fn); b != nil && g.blockManaged(b, hops-1) {
						found = true
						return false
					}
				}
			}
		}
		return true
	})
	return found
}

// isLifecycleExpr reports whether e's static type is a lifecycle
// signal: context.Context, a channel, or sync.WaitGroup.
func (g *goExit) isLifecycleExpr(e ast.Expr) bool {
	t := g.u.Pkg.Info.TypeOf(e)
	return g.isLifecycleType(t)
}

func (g *goExit) isLifecycleType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Chan:
		return true
	case *types.Named:
		obj := t.Obj()
		if obj.Pkg() == nil {
			return false
		}
		if obj.Pkg().Path() == "context" && obj.Name() == "Context" {
			return true
		}
		if obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup" {
			return true
		}
		// A named channel type.
		if _, ok := t.Underlying().(*types.Chan); ok {
			return true
		}
	case *types.Interface:
		// context.Context flows around as an interface; TypeOf on an
		// ident usually yields the named type, handled above.
	}
	return false
}

// isWaitGroupMethod reports (*sync.WaitGroup).Done/Add/Wait.
func (g *goExit) isWaitGroupMethod(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "WaitGroup"
}

// declBody finds the FuncDecl body for a same-package function.
func (g *goExit) declBody(fn *types.Func) *ast.BlockStmt {
	for _, file := range g.u.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if g.u.Pkg.Info.Defs[fd.Name] == fn {
				return fd.Body
			}
		}
	}
	return nil
}

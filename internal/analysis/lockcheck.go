package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockCheck enforces three locking disciplines:
//
//  1. no sync.Mutex/RWMutex (or value containing one) copied by value
//     through a receiver, parameter, or plain assignment — a copied
//     mutex guards nothing;
//  2. no sync mutex Lock/RLock without a matching Unlock/RUnlock
//     (deferred or direct) reachable in the same function body,
//     nested closures included — cross-function lock handoffs must be
//     annotated with //lint:ignore lockcheck and a reason;
//  3. the repo-specific ordering rule: no propagation lock from
//     internal/locks may be held across a *direct* call into
//     internal/transport. The paper's liveness argument (§IV-D)
//     requires a blocked propagation round to release its row lock
//     before waiting on the network; a transport round-trip under the
//     row lock can deadlock propagation against the very update it
//     waits for. (Indirect calls through coord are the sanctioned
//     quorum rounds of Algorithm 2 and are not flagged.)
//
// Rules 1 and 2 are heuristic complements to `go vet` (which also runs
// in CI), tuned to this codebase; rule 3 exists nowhere else.
var LockCheck = &Pass{
	Name: "lockcheck",
	Doc:  "mutex copies, Lock without reachable Unlock, locks held across transport calls",
	Run:  runLockCheck,
}

func runLockCheck(u *Unit) {
	for _, file := range u.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			u.checkMutexCopies(fd)
			if fd.Body != nil {
				u.checkLockPairs(fd)
				u.checkHeldAcrossTransport(fd)
			}
		}
	}
}

// checkMutexCopies flags by-value receivers, parameters, and plain
// assignments whose type contains a sync mutex.
func (u *Unit) checkMutexCopies(fd *ast.FuncDecl) {
	fields := []*ast.Field{}
	if fd.Recv != nil {
		fields = append(fields, fd.Recv.List...)
	}
	if fd.Type.Params != nil {
		fields = append(fields, fd.Type.Params.List...)
	}
	for _, f := range fields {
		t := u.Pkg.Info.TypeOf(f.Type)
		if t == nil {
			continue
		}
		if _, ptr := t.(*types.Pointer); !ptr && containsMutex(t, nil) {
			u.Reportf(f.Type.Pos(), "%s passes a value containing a sync mutex by value; a copied mutex guards nothing — take a pointer", fd.Name.Name)
		}
	}
	if fd.Body == nil {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			if lhs, ok := assign.Lhs[i].(*ast.Ident); ok && lhs.Name == "_" {
				continue // a blank assignment discards, it does not copy
			}
			switch rhs.(type) {
			case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
			default:
				continue // composite literals and call results are moves
			}
			if t := u.Pkg.Info.TypeOf(rhs); t != nil && containsMutex(t, nil) {
				u.Reportf(rhs.Pos(), "assignment copies a value containing a sync mutex; share a pointer instead")
			}
		}
		return true
	})
}

// containsMutex reports whether t embeds a sync.Mutex/RWMutex by value
// (directly, through struct fields, or through arrays).
func containsMutex(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	if seen == nil {
		seen = map[types.Type]bool{}
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
			(obj.Name() == "Mutex" || obj.Name() == "RWMutex") {
			return true
		}
		return containsMutex(named.Underlying(), seen)
	}
	switch t := t.(type) {
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if containsMutex(t.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsMutex(t.Elem(), seen)
	}
	return false
}

// syncLockMethod reports whether the call invokes
// (*sync.Mutex/RWMutex/Locker).<Lock|Unlock|RLock|RUnlock>, returning
// the method name and the receiver expression's printed form as the
// pairing key.
func (u *Unit) syncLockMethod(call *ast.CallExpr) (name, key string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := u.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
		return fn.Name(), types.ExprString(sel.X), true
	}
	return "", "", false
}

// checkLockPairs reports sync mutex Lock/RLock calls with no matching
// Unlock/RUnlock on the same receiver expression anywhere in the
// function body (closures included).
func (u *Unit) checkLockPairs(fd *ast.FuncDecl) {
	type acquire struct {
		pos  token.Pos
		name string
	}
	acquires := map[string][]acquire{} // key → Lock/RLock sites
	releases := map[string]map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, key, ok := u.syncLockMethod(call)
		if !ok {
			return true
		}
		switch name {
		case "Lock", "RLock":
			acquires[key] = append(acquires[key], acquire{call.Pos(), name})
		case "Unlock", "RUnlock":
			if releases[key] == nil {
				releases[key] = map[string]bool{}
			}
			releases[key][name] = true
		}
		return true
	})
	for key, as := range acquires {
		for _, a := range as {
			want := "Unlock"
			if a.name == "RLock" {
				want = "RUnlock"
			}
			if !releases[key][want] {
				u.Reportf(a.pos, "%s.%s with no reachable %s.%s in %s; defer the unlock, or annotate the cross-function handoff",
					key, a.name, key, want, fd.Name.Name)
			}
		}
	}
}

// checkHeldAcrossTransport flags direct internal/transport calls made
// while a propagation lock from internal/locks is held, plus acquires
// whose release function is discarded outright.
func (u *Unit) checkHeldAcrossTransport(fd *ast.FuncDecl) {
	locksPath := u.ModPath + "/internal/locks"
	transPath := u.ModPath + "/internal/transport"

	// isLocksAcquire reports whether call is
	// (*locks.Manager).Acquire/Lock/RLock.
	isLocksAcquire := func(call *ast.CallExpr) bool {
		fn := u.calleeFunc(call)
		return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == locksPath &&
			(fn.Name() == "Acquire" || fn.Name() == "Lock" || fn.Name() == "RLock")
	}

	type span struct {
		from    token.Pos
		to      token.Pos // release call position, or body end
		release types.Object
	}
	var spans []span
	bodyEnd := fd.Body.End()

	// First walk: find acquires and the release variables they bind.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.ExprStmt:
			if call, ok := stmt.X.(*ast.CallExpr); ok && isLocksAcquire(call) {
				u.Reportf(call.Pos(), "propagation lock acquired but its release function is discarded; the row would stay locked forever")
			}
		case *ast.AssignStmt:
			if len(stmt.Rhs) != 1 || len(stmt.Lhs) != 1 {
				return true
			}
			call, ok := stmt.Rhs[0].(*ast.CallExpr)
			if !ok || !isLocksAcquire(call) {
				return true
			}
			id, ok := stmt.Lhs[0].(*ast.Ident)
			if !ok || id.Name == "_" {
				u.Reportf(call.Pos(), "propagation lock acquired but its release function is discarded; the row would stay locked forever")
				return true
			}
			obj := u.Pkg.Info.Defs[id]
			if obj == nil {
				obj = u.Pkg.Info.Uses[id]
			}
			spans = append(spans, span{from: call.Pos(), to: bodyEnd, release: obj})
		}
		return true
	})
	if len(spans) == 0 {
		return
	}

	// Second walk: shrink spans to the first direct release() call
	// after the acquire. A deferred release (or one passed elsewhere)
	// keeps the span open to the end of the body — conservative, since
	// the lock is then held for the rest of the function.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		stmt, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := stmt.X.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		obj := u.Pkg.Info.Uses[id]
		for i := range spans {
			s := &spans[i]
			if obj != nil && obj == s.release && call.Pos() > s.from && call.Pos() < s.to {
				s.to = call.Pos()
			}
		}
		return true
	})

	// Third walk: transport calls inside a held span.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := u.calleeFunc(call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != transPath {
			return true
		}
		for _, s := range spans {
			if call.Pos() > s.from && call.Pos() < s.to {
				u.Reportf(call.Pos(), "transport.%s called while holding a propagation lock from internal/locks; release the row lock before any network round-trip (liveness, paper §IV-D)", fn.Name())
				break
			}
		}
		return true
	})
}

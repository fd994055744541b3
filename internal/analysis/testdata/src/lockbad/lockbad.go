// Package lockbad is the lockcheck golden fixture: a mutex copied by
// value through a parameter and an assignment, a Lock with no
// reachable Unlock, and the repo-specific rule that a propagation lock —
// a row granted by core.Port.Serialize — must not be held across a
// direct transport call.
package lockbad

import (
	"sync"

	"vstore/internal/core"
	"vstore/internal/transport"
)

type guarded struct {
	mu sync.Mutex
	n  int
}

func copiesParam(g guarded) int { // want "passes a value containing a sync mutex by value"
	return g.n
}

func copiesAssign(g *guarded) {
	h := *g // want "assignment copies a value containing a sync mutex"
	_ = h
}

func noUnlock(g *guarded) {
	g.mu.Lock() // want "no reachable g.mu.Unlock"
	g.n++
}

func paired(g *guarded) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

func heldAcross(p core.Port, tr transport.Transport, self, to transport.NodeID, req transport.Request) {
	release := p.Serialize("row", true)
	tr.Call(self, to, req) // want "called while holding a propagation lock"
	release()
	tr.Call(self, to, req) // ok: the row lock was released first
}

func discardsRelease(p core.Port) {
	p.Serialize("row", true) // want "release function is discarded"
}

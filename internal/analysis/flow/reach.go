package flow

import (
	"go/ast"
)

// Reach is the solved "must-reach" lattice for one generator predicate
// over one graph: at every program point it answers whether EVERY path
// from the function entry to that point passes a node the generator
// matched. This is the shape of the repo's ordering invariants — "a
// WAL append must precede this memtable apply" — as a forward
// must-analysis (meet = AND over predecessors).
type Reach struct {
	g   *Graph
	gen func(ast.Node) bool
	// in[b]: the fact holds on entry to block b along every path.
	in []bool
	// blockGen[b]: some node of b matches gen.
	blockGen []bool
}

// MustReach solves the lattice for gen. The generator is consulted on
// every node inside each block's atomic items, except nodes under a
// function literal (deferred execution) or a defer statement (runs at
// exit, so it cannot order before anything in the body).
func (g *Graph) MustReach(gen func(ast.Node) bool) *Reach {
	n := len(g.Blocks)
	r := &Reach{g: g, gen: gen, in: make([]bool, n), blockGen: make([]bool, n)}
	for _, b := range g.Blocks {
		for _, item := range b.Nodes {
			if containsGen(item, gen) {
				r.blockGen[b.Index] = true
				break
			}
		}
	}
	// Must-analysis: initialize everything but the entry to ⊤ (true)
	// and iterate downward to the greatest fixpoint.
	for i := range r.in {
		r.in[i] = i != g.Entry.Index
	}
	for changed := true; changed; {
		changed = false
		for _, b := range g.Blocks {
			if b.Index == g.Entry.Index {
				continue
			}
			v := len(b.Preds) > 0
			for _, p := range b.Preds {
				if !(r.in[p.Index] || r.blockGen[p.Index]) {
					v = false
					break
				}
			}
			if v != r.in[b.Index] && !v {
				r.in[b.Index] = v
				changed = true
			}
		}
	}
	return r
}

// At reports whether the fact must hold immediately before the node
// at position pos (typically a call's position). The node must lie
// inside one of the graph's blocks; unreachable or unlocatable
// positions report false (conservative for a "must precede" check).
func (r *Reach) At(n ast.Node) bool {
	pos := n.Pos()
	for _, b := range r.g.Blocks {
		for i, item := range b.Nodes {
			if pos < item.Pos() || pos >= item.End() {
				continue
			}
			if r.in[b.Index] {
				return true
			}
			// A generator earlier in the same block, or earlier within
			// the same atomic item (e.g. the init of the statement),
			// satisfies the fact.
			for j := 0; j < i; j++ {
				if containsGen(b.Nodes[j], r.gen) {
					return true
				}
			}
			return genBefore(item, r.gen, n)
		}
	}
	return false
}

// containsGen reports whether any node under item (skipping function
// literals and defers) matches gen.
func containsGen(item ast.Node, gen func(ast.Node) bool) bool {
	found := false
	ast.Inspect(item, func(n ast.Node) bool {
		if n == nil || found {
			return false
		}
		switch n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		}
		if gen(n) {
			found = true
			return false
		}
		return true
	})
	return found
}

// genBefore reports whether a generator inside item (skipping function
// literals and defers) evaluates before the queried node within the
// same atomic item. Two shapes count: a generator that ends before the
// query starts (`if err := log(x); err == nil { apply(x) }`), and a
// generator nested inside the query (`apply(log(x))` — arguments
// evaluate before the call fires).
func genBefore(item ast.Node, gen func(ast.Node) bool, query ast.Node) bool {
	found := false
	ast.Inspect(item, func(n ast.Node) bool {
		if n == nil || found {
			return false
		}
		switch n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		}
		if gen(n) && n != query &&
			(n.End() <= query.Pos() || (n.Pos() > query.Pos() && n.End() <= query.End())) {
			found = true
			return false
		}
		return true
	})
	return found
}

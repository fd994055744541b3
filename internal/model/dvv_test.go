package model

import (
	"testing"

	"vstore/internal/dvv"
)

// stamped builds a canonical-form dotted cell: the context contains the
// cell's own dot, the way coordinators stamp client writes.
func stamped(val string, ts int64, node uint32, seq uint64) Cell {
	return Cell{
		Value: []byte(val),
		TS:    ts,
		Dot:   dvv.Dot{Node: node, Seq: seq},
		Ctx:   dvv.VV{node: seq},
	}
}

func TestConcurrentJudgement(t *testing.T) {
	a := stamped("a", 10, 0, 1)
	b := stamped("b", 11, 1, 1) // different coordinator, unchained
	c := stamped("c", 12, 0, 2) // same coordinator as a, later

	cases := []struct {
		name string
		x, y Cell
		want bool
	}{
		{"cross-coordinator unchained", a, b, true},
		{"same-coordinator chained", a, c, false},
		{"self", a, a, false},
		{"undotted vs dotted", Cell{Value: []byte("v"), TS: 5}, a, false},
		{"both undotted", Cell{Value: []byte("v"), TS: 5}, Cell{Value: []byte("w"), TS: 6}, false},
	}
	for _, tc := range cases {
		if got := Concurrent(tc.x, tc.y); got != tc.want {
			t.Errorf("%s: Concurrent=%v, want %v", tc.name, got, tc.want)
		}
		if got := Concurrent(tc.y, tc.x); got != tc.want {
			t.Errorf("%s (swapped): Concurrent=%v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestMergeAbsorbsLoserDot is the property the causal-convergence
// oracle leans on: whatever cell survives a merge must dominate both
// inputs' dots, so an acknowledged write is provably subsumed rather
// than silently clobbered.
func TestMergeAbsorbsLoserDot(t *testing.T) {
	a := stamped("a", 10, 0, 3)
	b := stamped("b", 11, 1, 5)
	m := Merge(a, b)
	if string(m.Value) != "b" {
		t.Fatalf("LWW winner changed: %q", m.Value)
	}
	for _, d := range []dvv.Dot{a.Dot, b.Dot} {
		if m.Dot != d && !m.Ctx.Contains(d) {
			t.Fatalf("merged cell (dot %v, ctx %v) does not dominate input dot %v", m.Dot, m.Ctx, d)
		}
	}
	// Merge with an undotted cell must not invent or lose metadata.
	plain := Cell{Value: []byte("p"), TS: 20}
	m2 := Merge(m, plain)
	if string(m2.Value) != "p" || !m2.Ctx.Contains(a.Dot) || !m2.Ctx.Contains(b.Dot) {
		t.Fatalf("undotted winner lost absorbed dots: %+v", m2)
	}
}

func TestMergeIdempotentWithDots(t *testing.T) {
	a := stamped("a", 10, 2, 7)
	m := Merge(a, a)
	if !m.Equal(a) || m.Dot != a.Dot || !m.Ctx.Equal(a.Ctx) {
		t.Fatalf("self-merge changed the cell: %+v vs %+v", m, a)
	}
}

func TestMergeCommutativeWithDots(t *testing.T) {
	a := stamped("a", 10, 0, 1)
	b := stamped("b", 10, 1, 1) // timestamp tie → value tie-break
	ab, ba := Merge(a, b), Merge(b, a)
	if !ab.Equal(ba) || ab.Dot != ba.Dot || !ab.Ctx.Equal(ba.Ctx) {
		t.Fatalf("merge not commutative: %+v vs %+v", ab, ba)
	}
}

// TestMergeCommutativeOnFullTie pins sim seed 9 of the backfill
// scenario: two distinct client writes of the same value at the same
// timestamp tie completely under LWW, and replicas that merged them in
// different orders kept different dots — diverging forever, because
// anti-entropy digests cover the dot.
func TestMergeCommutativeOnFullTie(t *testing.T) {
	a := stamped("k2", 119, 2, 13)
	b := stamped("k2", 119, 2, 17)
	ab, ba := Merge(a, b), Merge(b, a)
	if ab.Dot != ba.Dot || !ab.Ctx.Equal(ba.Ctx) {
		t.Fatalf("merge order decided the surviving dot: %v vs %v", ab.Dot, ba.Dot)
	}
}

// TestRowDigestSensitiveToMetadata: two replicas holding the same
// value/timestamp but different causal contexts have NOT converged —
// the digest must expose that so anti-entropy repairs it.
func TestRowDigestSensitiveToMetadata(t *testing.T) {
	row1 := Row{"c": stamped("v", 10, 0, 1)}
	cell := stamped("v", 10, 0, 1)
	cell.Ctx = dvv.VV{0: 1, 1: 4} // absorbed an extra write
	row2 := Row{"c": cell}
	if RowDigest(row1) == RowDigest(row2) {
		t.Fatal("digest blind to context divergence")
	}
	row3 := Row{"c": stamped("v", 10, 1, 1)}
	if RowDigest(row1) == RowDigest(row3) {
		t.Fatal("digest blind to dot divergence")
	}
	undotted := Row{"c": {Value: []byte("v"), TS: 10}}
	if RowDigest(undotted) == RowDigest(row1) {
		t.Fatal("digest blind to presence of metadata")
	}
}

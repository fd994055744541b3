package model

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestCellNullness(t *testing.T) {
	if !NullCell.IsNull() {
		t.Fatal("NullCell should be null")
	}
	if NullCell.Exists() {
		t.Fatal("NullCell should not exist")
	}
	c := Cell{Value: []byte("x"), TS: 1}
	if c.IsNull() || !c.Exists() {
		t.Fatal("live cell misclassified")
	}
	d := Cell{TS: 2, Tombstone: true}
	if !d.IsNull() || !d.Exists() {
		t.Fatal("tombstone misclassified: should be null but existing")
	}
}

func TestWinsTimestampOrder(t *testing.T) {
	older := Cell{Value: []byte("a"), TS: 1}
	newer := Cell{Value: []byte("b"), TS: 2}
	if !newer.Wins(older) {
		t.Fatal("newer timestamp must win")
	}
	if older.Wins(newer) {
		t.Fatal("older timestamp must lose")
	}
	if !newer.Wins(NullCell) {
		t.Fatal("any write beats the null cell")
	}
}

func TestWinsTieBreaks(t *testing.T) {
	a := Cell{Value: []byte("aaa"), TS: 5}
	b := Cell{Value: []byte("bbb"), TS: 5}
	if !b.Wins(a) || a.Wins(b) {
		t.Fatal("at equal timestamps the larger value must win")
	}
	tomb := Cell{TS: 5, Tombstone: true}
	if !tomb.Wins(b) || b.Wins(tomb) {
		t.Fatal("at equal timestamps a tombstone must beat a value")
	}
	// A cell never wins against itself: Wins is a strict order.
	if a.Wins(a) || tomb.Wins(tomb) {
		t.Fatal("Wins must be irreflexive")
	}
}

func TestMergeDeterministic(t *testing.T) {
	a := Cell{Value: []byte("x"), TS: 3}
	b := Cell{TS: 7, Tombstone: true}
	got := Merge(a, b)
	if !got.Equal(b) {
		t.Fatalf("Merge picked %v, want %v", got, b)
	}
	if !Merge(b, a).Equal(got) {
		t.Fatal("Merge must be commutative")
	}
}

// genCell produces a small random cell; timestamps are drawn from a
// narrow range so that ties actually occur during property testing.
func genCell(r *rand.Rand) Cell {
	if r.Intn(10) == 0 {
		return NullCell
	}
	c := Cell{TS: int64(r.Intn(4))}
	if r.Intn(4) == 0 {
		c.Tombstone = true
	} else {
		c.Value = []byte{byte('a' + r.Intn(3))}
	}
	return c
}

type cellTriple struct{ A, B, C Cell }

func (cellTriple) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(cellTriple{genCell(r), genCell(r), genCell(r)})
}

// The LWW merge must form a semilattice: commutative, associative,
// idempotent. This is the algebraic property that makes every replica
// converge to the same state no matter the delivery order.
func TestMergeSemilatticeProperties(t *testing.T) {
	comm := func(tr cellTriple) bool {
		return Merge(tr.A, tr.B).Equal(Merge(tr.B, tr.A))
	}
	assoc := func(tr cellTriple) bool {
		return Merge(Merge(tr.A, tr.B), tr.C).Equal(Merge(tr.A, Merge(tr.B, tr.C)))
	}
	idem := func(tr cellTriple) bool {
		return Merge(tr.A, tr.A).Equal(tr.A)
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(comm, cfg); err != nil {
		t.Errorf("commutativity: %v", err)
	}
	if err := quick.Check(assoc, cfg); err != nil {
		t.Errorf("associativity: %v", err)
	}
	if err := quick.Check(idem, cfg); err != nil {
		t.Errorf("idempotence: %v", err)
	}
}

// Applying a permutation of the same updates must yield the same final
// cell: convergence under reordering.
func TestMergeOrderIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		cells := make([]Cell, 6)
		for i := range cells {
			cells[i] = genCell(r)
		}
		apply := func(order []int) Cell {
			acc := NullCell
			for _, i := range order {
				acc = Merge(acc, cells[i])
			}
			return acc
		}
		base := apply([]int{0, 1, 2, 3, 4, 5})
		perm := r.Perm(6)
		if got := apply(perm); !got.Equal(base) {
			t.Fatalf("order %v produced %v, want %v", perm, got, base)
		}
	}
}

func TestEncodeDecodeKeyRoundTrip(t *testing.T) {
	cases := []struct{ row, col string }{
		{"", ""},
		{"k", ""},
		{"", "c"},
		{"user:42", "name"},
		{"with\x00null", "col\x00umn"},
		{"日本語", "列"},
	}
	for _, c := range cases {
		enc := EncodeKey(c.row, c.col)
		row, col, err := DecodeKey(enc)
		if err != nil {
			t.Fatalf("DecodeKey(%q/%q): %v", c.row, c.col, err)
		}
		if row != c.row || col != c.col {
			t.Fatalf("round trip (%q,%q) -> (%q,%q)", c.row, c.col, row, col)
		}
	}
}

func TestDecodeKeyMalformed(t *testing.T) {
	if _, _, err := DecodeKey([]byte{0xFF}); err == nil {
		t.Fatal("want error for truncated uvarint")
	}
	// Length prefix claims more bytes than available.
	bad := []byte{10, 'a', 'b'}
	if _, _, err := DecodeKey(bad); err == nil {
		t.Fatal("want error for short body")
	}
	if _, _, err := DecodeKey(nil); err == nil {
		t.Fatal("want error for empty key")
	}
}

// Distinct (row, column) pairs must encode to distinct keys, and all
// columns of a row must share RowPrefix(row) while no other row's
// columns may.
func TestEncodeKeyInjectivePrefixSafe(t *testing.T) {
	f := func(r1, c1, r2, c2 string) bool {
		k1 := EncodeKey(r1, c1)
		k2 := EncodeKey(r2, c2)
		if r1 == r2 && c1 == c2 {
			return bytes.Equal(k1, k2)
		}
		if bytes.Equal(k1, k2) {
			return false
		}
		p1 := RowPrefix(r1)
		hasPrefix := bytes.HasPrefix(k2, p1)
		// k2 carries prefix of row r1 iff it belongs to row r1.
		return hasPrefix == (r1 == r2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Adjacent rows must not interleave: every key of row A must sort
// strictly before or after every key of a different row B whenever the
// encoded prefixes differ, guaranteeing contiguous prefix scans.
func TestRowKeysContiguous(t *testing.T) {
	rows := []string{"", "a", "aa", "ab", "b", "longer-row-key", "a\x00b"}
	cols := []string{"", "c1", "c2", "zzz"}
	type entry struct {
		key []byte
		row string
	}
	var all []entry
	for _, r := range rows {
		for _, c := range cols {
			all = append(all, entry{EncodeKey(r, c), r})
		}
	}
	// Sort lexicographically.
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if bytes.Compare(all[j].key, all[i].key) < 0 {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	seen := map[string]bool{}
	last := ""
	for _, e := range all {
		if e.row != last {
			if seen[e.row] {
				t.Fatalf("row %q appears in two separate runs", e.row)
			}
			seen[e.row] = true
			last = e.row
		}
	}
}

func TestQualifyRoundTrip(t *testing.T) {
	f := func(base, col string) bool {
		q := Qualify(base, col)
		b, c, ok := Unqualify(q)
		return ok && b == base && c == col
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := Unqualify("\xff\xff"); ok {
		t.Fatal("Unqualify must reject malformed names")
	}
	all := func(base string, cols []string) bool {
		got := append([]string(nil), cols...)
		QualifyAll(base, got)
		for i, c := range cols {
			if got[i] != Qualify(base, c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(all, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if !all(strings.Repeat("b", 200), []string{"", "x"}) { // a two-byte length frame
		t.Fatal("QualifyAll differs from Qualify for a long base key")
	}
}

func TestVersionSetDedup(t *testing.T) {
	var vs VersionSet
	a := Cell{Value: []byte("a"), TS: 1}
	b := Cell{Value: []byte("b"), TS: 2}
	if !vs.Add(a) || !vs.Add(b) {
		t.Fatal("first insertions must report change")
	}
	if vs.Add(a) {
		t.Fatal("duplicate insertion must report no change")
	}
	if vs.Len() != 2 {
		t.Fatalf("len = %d, want 2", vs.Len())
	}
	if got := vs.Latest(); !got.Equal(b) {
		t.Fatalf("Latest = %v, want %v", got, b)
	}
}

func TestVersionSetNewestFirst(t *testing.T) {
	var vs VersionSet
	for _, ts := range []int64{3, 1, 9, 7} {
		vs.Add(Cell{Value: []byte(fmt.Sprint(ts)), TS: ts})
	}
	cells := vs.Cells()
	for i := 1; i < len(cells); i++ {
		if cells[i].Wins(cells[i-1]) {
			t.Fatalf("cells not in newest-first order: %v", cells)
		}
	}
	if cells[0].TS != 9 {
		t.Fatalf("newest cell should be first, got %v", cells[0])
	}
}

func TestVersionSetEmptyLatest(t *testing.T) {
	var vs VersionSet
	if got := vs.Latest(); !got.Equal(NullCell) {
		t.Fatalf("empty set Latest = %v, want NullCell", got)
	}
	if len(vs.Cells()) != 0 {
		t.Fatal("empty set must return no cells")
	}
}

func TestRowClone(t *testing.T) {
	r := Row{"a": {Value: []byte("x"), TS: 1}}
	c := r.Clone()
	c["b"] = Cell{TS: 2}
	if _, ok := r["b"]; ok {
		t.Fatal("clone must not alias the original map")
	}
}

func TestUpdateDeletionConstructors(t *testing.T) {
	u := Update("col", []byte("v"), 5)
	if u.Column != "col" || u.Cell.Tombstone || u.Cell.TS != 5 || string(u.Cell.Value) != "v" {
		t.Fatalf("Update built %+v", u)
	}
	d := Deletion("col", 6)
	if !d.Cell.Tombstone || d.Cell.TS != 6 || d.Cell.Value != nil {
		t.Fatalf("Deletion built %+v", d)
	}
}

func TestCellString(t *testing.T) {
	if NullCell.String() != "<null>" {
		t.Fatal("null cell string")
	}
	if s := (Cell{TS: 4, Tombstone: true}).String(); s != "<tombstone @4>" {
		t.Fatalf("tombstone string %q", s)
	}
	if s := (Cell{Value: []byte("v"), TS: 4}).String(); s != `"v" @4` {
		t.Fatalf("value string %q", s)
	}
}

// TestRowCollector feeds sorted storage keys — several cells per row, a
// malformed key among them — and checks the paging rules every
// RowsFrom shares: the cursor row's own cells are stepped over, each
// row is named once, malformed keys are skipped, and the collector
// stops asking once it is full.
func TestRowCollector(t *testing.T) {
	keys := [][]byte{
		EncodeKey("a", "c1"), EncodeKey("a", "c2"),
		EncodeKey("b", ""), EncodeKey("b", "c"),
		EncodeKey("c", "c"),
		EncodeKey("ab", "c"), // longer rows sort after shorter ones
		{0x05, 'x'},          // claims a 5-byte row, holds 1
	}
	collect := func(after []byte, max int) ([]string, int) {
		rc := NewRowCollector(after, max)
		fed := 0
		for _, k := range keys {
			fed++
			if !rc.Add(k) {
				break
			}
		}
		return rc.Rows(), fed
	}
	if got, _ := collect(nil, 10); !reflect.DeepEqual(got, []string{"a", "b", "c", "ab"}) {
		t.Fatalf("from the start: %q", got)
	}
	if got, _ := collect(RowPrefix("a"), 10); !reflect.DeepEqual(got, []string{"b", "c", "ab"}) {
		t.Fatalf("after row a: %q", got)
	}
	got, fed := collect(nil, 2)
	if !reflect.DeepEqual(got, []string{"a", "b"}) || fed != 5 {
		t.Fatalf("page of 2: %q after %d keys, want [a b] and a stop at the first key past row b", got, fed)
	}
	if got, _ := collect(nil, 0); got != nil {
		t.Fatalf("page of 0: %q", got)
	}
}

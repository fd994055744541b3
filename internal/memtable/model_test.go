package memtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"vstore/internal/model"
	"vstore/internal/race"
)

// reference is what a memtable must behave like: a map from storage
// key to the LWW-merged cell, sorted on demand, with the byte estimate
// the engine has always used for its flush threshold — key + value + 9
// when a cell first arrives, then the change in the retained value's
// length on every merge.
type reference struct {
	cells map[string]model.Cell
	bytes int64
}

func (r *reference) apply(key []byte, c model.Cell) (model.Cell, bool) {
	old, ok := r.cells[string(key)]
	if !ok {
		r.cells[string(key)] = c
		r.bytes += int64(len(key)) + int64(len(c.Value)) + 9
		return model.NullCell, false
	}
	merged := model.Merge(old, c)
	r.cells[string(key)] = merged
	r.bytes += int64(len(merged.Value)) - int64(len(old.Value))
	return old, true
}

func (r *reference) get(key []byte) (model.Cell, bool) {
	c, ok := r.cells[string(key)]
	if !ok {
		return model.NullCell, false
	}
	return c, true
}

// sorted returns the reference's entries ordered by bytes.Compare on
// the storage key, the order every scan must produce.
func (r *reference) sorted() []model.Entry {
	out := make([]model.Entry, 0, len(r.cells))
	for k, c := range r.cells {
		out = append(out, model.Entry{Key: []byte(k), Cell: c})
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].Key, out[j].Key) < 0 })
	return out
}

func (r *reference) scanPrefix(prefix []byte) []model.Entry {
	var out []model.Entry
	for _, e := range r.sorted() {
		if bytes.HasPrefix(e.Key, prefix) {
			out = append(out, e)
		}
	}
	return out
}

func (r *reference) rowsFrom(after []byte, max int) []string {
	var out []string
	for _, e := range r.sorted() {
		if bytes.Compare(e.Key, after) < 0 || (len(after) > 0 && bytes.HasPrefix(e.Key, after)) {
			continue
		}
		row, _, err := model.DecodeKey(e.Key)
		if err != nil || (len(out) > 0 && out[len(out)-1] == row) {
			continue
		}
		if len(out) == max {
			break
		}
		out = append(out, row)
	}
	return out
}

// Names chosen so rows are prefixes of one another, sort by length
// first under the storage-key encoding, and include the empty string;
// columns include qualified view-row names.
var (
	modelRows = []string{"", "a", "ab", "abc", "b", "row-7", "row-70", "z\x00", "\xff"}
	modelCols = []string{"", "c", "c1", "c10", "\x00", "skey", "payload", model.Qualify("a", "c"), model.Qualify("ab", ""), "~"}
)

// script decodes an operation stream from bytes, so the seeded test
// and the fuzzer drive the same interpreter.
type script struct {
	data []byte
	pos  int
}

func (s *script) more() bool { return s.pos < len(s.data) }

func (s *script) byte() int {
	if s.pos >= len(s.data) {
		return 0
	}
	s.pos++
	return int(s.data[s.pos-1])
}

func (s *script) cell() model.Cell {
	b := s.byte()
	c := model.Cell{TS: int64(s.byte() % 6)}
	switch b % 8 {
	case 0:
		c.Tombstone = true
	case 1: // empty value
	default:
		c.Value = bytes.Repeat([]byte{byte('a' + b%5)}, b%40)
	}
	return c
}

// check drives a memtable and the reference through the script and
// compares every result.
func check(t *testing.T, data []byte) {
	t.Helper()
	s := &script{data: data}
	m := New(int64(s.byte()))
	ref := &reference{cells: map[string]model.Cell{}}
	same := func(what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("op at byte %d: %s = %v, want %v", s.pos, what, got, want)
		}
	}
	entries := func(what string, got, want []model.Entry) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("op at byte %d: %s has %d entries, want %d", s.pos, what, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i].Key, want[i].Key) {
				t.Fatalf("op at byte %d: %s[%d] is key %q, want %q", s.pos, what, i, got[i].Key, want[i].Key)
			}
			same(fmt.Sprintf("%s[%d] %q", what, i, got[i].Key), got[i].Cell, want[i].Cell)
		}
	}
	for s.more() {
		op, row := s.byte(), modelRows[s.byte()%len(modelRows)]
		switch op % 8 {
		case 0, 1, 2: // a row of cells, columns in any order, repeats allowed
			// Through Apply(key) per cell, through one row handle as
			// lsm.ApplyRow writes, or through a handle taken before an
			// Apply(key) that may insert its row.
			mode, h := s.byte()%3, m.Row(model.RowPrefix(row))
			for n := 1 + s.byte()%6; n > 0; n-- {
				key, c := model.EncodeKey(row, modelCols[s.byte()%len(modelCols)]), s.cell()
				var old model.Cell
				var ok bool
				if mode == 0 || mode == 2 && n%2 == 0 {
					old, ok = m.Apply(key, c)
				} else {
					old, ok = h.Apply(key, c)
				}
				wantOld, wantOK := ref.apply(key, c)
				same(fmt.Sprintf("Apply(%q) old", key), old, wantOld)
				same(fmt.Sprintf("Apply(%q) ok", key), ok, wantOK)
			}
		case 3, 4: // point reads, through Get(key) or one row handle
			h := m.Row(model.RowPrefix(row))
			for n := 1 + s.byte()%4; n > 0; n-- {
				key := model.EncodeKey(row, modelCols[s.byte()%len(modelCols)])
				got, ok := m.Get(key)
				if op%8 == 4 {
					got, ok = h.Get(key)
				}
				want, wantOK := ref.get(key)
				same(fmt.Sprintf("Get(%q)", key), got, want)
				same(fmt.Sprintf("Get(%q) ok", key), ok, wantOK)
			}
		case 5:
			prefix := model.RowPrefix(row)
			h := m.Row(prefix)
			entries(fmt.Sprintf("row %q", row), h.AppendTo(nil), ref.scanPrefix(prefix))
		case 6:
			var after []byte
			if s.byte()%4 != 0 {
				after = model.RowPrefix(row)
			}
			max := s.byte() % 5
			same(fmt.Sprintf("RowsFrom(%q, %d)", after, max), m.RowsFrom(after, max), ref.rowsFrom(after, max))
		case 7:
			entries("Snapshot", m.Snapshot(), ref.sorted())
		}
		same("ApproxBytes", m.ApproxBytes(), ref.bytes)
		same("Len", m.Len(), len(ref.cells))
	}
	snap := m.Snapshot()
	entries("final Snapshot", snap, ref.sorted())
	for i := 1; i < len(snap); i++ {
		if bytes.Compare(snap[i-1].Key, snap[i].Key) >= 0 {
			t.Fatalf("snapshot out of order at %d: %q then %q", i, snap[i-1].Key, snap[i].Key)
		}
	}
	checkLayout(t, m)
}

// checkLayout checks the row layout itself: every row is in the index
// under its skiplist key, and its chunks are non-empty, hold at most
// chunkCells, and share the row's prefix.
func checkLayout(t *testing.T, m *Memtable) {
	t.Helper()
	rows := 0
	for it := m.rows.Iter(); it.Valid(); it.Next() {
		rows++
		prefix, r := it.Key(), m.index[string(it.Key())]
		if r == nil || len(r.chunks) == 0 {
			t.Fatalf("row %q is not in the index or has no chunks", prefix)
		}
		for ci, c := range r.chunks {
			if len(c) == 0 || cap(c) > chunkCells {
				t.Fatalf("row %q chunk %d holds %d of %d cells", prefix, ci, len(c), cap(c))
			}
			for _, e := range c {
				if !bytes.HasPrefix(e.Key, prefix) {
					t.Fatalf("row %q holds key %q", prefix, e.Key)
				}
			}
		}
	}
	if rows != len(m.index) {
		t.Fatalf("%d rows in the skiplist, %d in the index", rows, len(m.index))
	}
}

func TestAgainstReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		data := make([]byte, 4000)
		rand.New(rand.NewSource(seed)).Read(data)
		check(t, data)
	}
}

func FuzzAgainstReference(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { check(t, data) })
}

// TestWideRows applies rows of 1, 5, 63, 64, 65, 129, 5000 (twice)
// and 30 000 columns — one chunk, a full one, a split, two splits, and
// rows of hundreds of chunks — columns shuffled, between rows that
// sort around them, through Apply(key) and through a row handle, and
// reads them back in another shuffled order.
func TestWideRows(t *testing.T) {
	m := New(3)
	ref := &reference{cells: map[string]model.Cell{}}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		key := model.EncodeKey(fmt.Sprintf("r%03d", rng.Intn(400)), fmt.Sprintf("c%d", rng.Intn(4)))
		c := model.Cell{Value: []byte("x"), TS: int64(i)}
		m.Apply(key, c)
		ref.apply(key, c)
	}
	for round, width := range []int{1, 5, 63, 64, 65, 129, 5000, 5000, 30000} {
		row := fmt.Sprintf("r2%02d", width%97) // among the r000..r399 rows
		h := m.Row(model.RowPrefix(row))
		for _, j := range rng.Perm(width) {
			key := model.EncodeKey(row, model.Qualify(fmt.Sprintf("base-%06d", j), "payload"))
			c := model.Cell{Value: []byte(fmt.Sprintf("v%d", j)), TS: int64(10 + round)}
			var old model.Cell
			var ok bool
			if round%2 == 0 {
				old, ok = m.Apply(key, c)
			} else {
				old, ok = h.Apply(key, c)
			}
			wantOld, wantOK := ref.apply(key, c)
			if ok != wantOK || !reflect.DeepEqual(old, wantOld) {
				t.Fatalf("width %d col %d: old = %v,%v want %v,%v", width, j, old, ok, wantOld, wantOK)
			}
		}
		h = m.Row(model.RowPrefix(row))
		for _, j := range rng.Perm(width + 3) {
			key := model.EncodeKey(row, model.Qualify(fmt.Sprintf("base-%06d", j), "payload"))
			got, ok := m.Get(key)
			if j%2 == 0 {
				got, ok = h.Get(key)
			}
			want, wantOK := ref.get(key)
			if ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("width %d col %d: Get = %v,%v want %v,%v", width, j, got, ok, want, wantOK)
			}
		}
		if got, want := h.AppendTo(nil), ref.scanPrefix(model.RowPrefix(row)); len(got) != len(want) {
			t.Fatalf("width %d: the row has %d entries, want %d", width, len(got), len(want))
		}
		if m.ApproxBytes() != ref.bytes || m.Len() != len(ref.cells) {
			t.Fatalf("width %d: ApproxBytes %d Len %d, want %d and %d", width, m.ApproxBytes(), m.Len(), ref.bytes, len(ref.cells))
		}
	}
	got, want := m.Snapshot(), ref.sorted()
	if len(got) != len(want) {
		t.Fatalf("snapshot has %d entries, want %d", len(got), len(want))
	}
	checkLayout(t, m)
	for i := range got {
		if !bytes.Equal(got[i].Key, want[i].Key) || !reflect.DeepEqual(got[i].Cell, want[i].Cell) {
			t.Fatalf("snapshot[%d] = %q %v, want %q %v", i, got[i].Key, got[i].Cell, want[i].Key, want[i].Cell)
		}
	}
}

// TestAllocations pins the write path's steady state: merging into a
// cell the memtable already holds allocates nothing, a new cell only
// now and then (node slabs, arena chunks and the rare tall tower
// amortize to a few allocations per thousand inserts), and reads
// allocate nothing.
func TestAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	m := New(1)
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = model.EncodeKey(fmt.Sprintf("data-%08d", i*2654435761%100000), "skey")
	}
	val := []byte("sec-00000001")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range keys {
		m.Apply(k, model.Cell{Value: val, TS: 1})
	}
	runtime.ReadMemStats(&after)
	if got := float64(after.Mallocs-before.Mallocs) / float64(len(keys)); got > 1.0/32 {
		t.Errorf("inserting a cell allocates %.4f times, want at most 1/32", got)
	}
	i := 0
	if got := testing.AllocsPerRun(len(keys)-1, func() {
		m.Apply(keys[i], model.Cell{Value: val, TS: 2})
		_, _ = m.Get(keys[i])
		i++
	}); got != 0 {
		t.Errorf("updating and reading existing cells allocates %v times, want 0", got)
	}
}

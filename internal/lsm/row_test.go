package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"vstore/internal/model"
	"vstore/internal/race"
)

// TestApplyRowMatchesCellAtATime writes the same rows to two stores —
// one ApplyRow per row, one Apply per cell — with a threshold that
// rows cross in their middle. After every row both stores must hold
// the same content, and the pre-images ApplyRow hands back must be
// what a Get just before each cell's write returns, across memtable
// and runs. The row store must flush only at row boundaries: a row
// that brings its memtable to the threshold flushes all of it, and one
// that does not flushes nothing.
func TestApplyRowMatchesCellAtATime(t *testing.T) {
	rows, cells := New(small()), New(small())
	rng := rand.New(rand.NewSource(8))
	cols := []string{"a", "b", "", "skey", "zz", "c\x00", "payload"}
	for i := 0; i < 600; i++ {
		row := fmt.Sprintf("row-%02d", rng.Intn(15))
		updates := make([]model.ColumnUpdate, 1+rng.Intn(6))
		for j := range updates {
			c := model.Cell{Value: bytes.Repeat([]byte{'v'}, rng.Intn(30)), TS: int64(rng.Intn(50))}
			if rng.Intn(6) == 0 {
				c = model.Cell{TS: c.TS, Tombstone: true}
			}
			updates[j] = model.ColumnUpdate{Column: cols[rng.Intn(len(cols))], Cell: c}
		}
		want := make([]model.Cell, len(updates))
		for j, u := range updates {
			want[j], _ = cells.Get(row, u.Column)
			if err := cells.Apply(row, u.Column, u.Cell); err != nil {
				t.Fatal(err)
			}
		}
		var old []model.Cell
		if i%4 != 0 { // every fourth row is a blind write
			old = make([]model.Cell, len(updates))
		}
		before := rows.Stats()
		if err := rows.ApplyRow(row, updates, old); err != nil {
			t.Fatal(err)
		}
		if old != nil && !reflect.DeepEqual(old, want) {
			t.Fatalf("row %d: pre-images %v, want %v", i, old, want)
		}
		after := rows.Stats()
		switch after.Flushes - before.Flushes {
		case 0:
			if b := rows.mem.ApproxBytes(); b >= rows.opts.FlushBytes {
				t.Fatalf("row %d: memtable at %d bytes of %d did not flush", i, b, rows.opts.FlushBytes)
			}
		case 1:
			if after.MemtableCells != 0 {
				t.Fatalf("row %d: flushed inside the row, %d cells left in the memtable", i, after.MemtableCells)
			}
		default:
			t.Fatalf("row %d flushed %d times", i, after.Flushes-before.Flushes)
		}
		if got, want := rows.Snapshot(), cells.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("row %d: stores differ: by row %d entries, by cell %d", i, len(got), len(want))
		}
	}
	if st := rows.Stats(); st.Flushes < 10 || st.Compactions == 0 {
		t.Fatalf("workload too small to flush often and compact: %+v", st)
	}
}

// TestAllocations pins the steady state of the storage hot path in a
// memory store: overwriting a cell allocates nothing, a new cell at
// most its share of the memtable's slabs, a two-column read only the row it
// returns, a two-column digest nothing, a whole-row read the entries it
// returns, from the memtable or merged across runs, and a whole-row
// digest nothing, even of a name too long to convert on the stack.
func TestAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := New(Options{Seed: 1})
	rows := make([]string, 2048)
	val := []byte("sec-00000001")
	for i := range rows {
		rows[i] = fmt.Sprintf("data-%08d", i)
	}
	i := 0
	if got := testing.AllocsPerRun(len(rows)-1, func() {
		_ = s.Apply(rows[i], "skey", model.Cell{Value: val, TS: 1})
		i++
	}); got > 1 {
		t.Errorf("Apply of a new cell allocates %v times, want at most 1", got)
	}
	updates := []model.ColumnUpdate{model.Update("skey", val, 2), model.Update("payload", val, 2), model.Update("skey", val, 3)}
	_ = s.ApplyRow(rows[0], updates, nil)
	var old [3]model.Cell
	i = 0
	if got := testing.AllocsPerRun(len(rows)-1, func() {
		_ = s.Apply(rows[i], "skey", model.Cell{Value: val, TS: 2})
		_ = s.ApplyRow(rows[0], updates, old[:])
		_, _ = s.Get(rows[i], "skey")
		i++
	}); got != 0 {
		t.Errorf("overwriting and reading existing cells allocates %v times, want 0", got)
	}
	cols := []string{"skey", "payload"}
	if got := testing.AllocsPerRun(1000, func() { _ = s.GetColumns(rows[0], cols) }); got > 1 {
		t.Errorf("GetColumns of two columns allocates %v times, want at most 1 (the cells it returns)", got)
	}
	if got := testing.AllocsPerRun(1000, func() { _ = s.DigestColumns(rows[0], cols) }); got > 0 {
		t.Errorf("DigestColumns of two columns allocates %v times, want 0", got)
	}
	_ = s.Apply(rows[0], strings.Repeat("long-column-", 4), model.Cell{Value: val, TS: 1})
	for _, where := range []string{"memtable", "memtable and a run"} {
		if got := testing.AllocsPerRun(1000, func() { _ = s.GetRow(rows[0]) }); got > 1 {
			t.Errorf("GetRow from the %s allocates %v times, want at most 1 (the entries it returns)", where, got)
		}
		if got := testing.AllocsPerRun(1000, func() { _ = s.DigestRow(rows[0]) }); got > 0 {
			t.Errorf("DigestRow from the %s allocates %v times, want 0", where, got)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		_ = s.Apply(rows[0], "skey", model.Cell{Value: val, TS: 4})
	}
}

// TestDigestColumnsMatchesRowDigest checks the map-free digests against
// the digest of the map of the cells GetColumns returns and of the map
// of the row GetRow returns, over rows spread across the memtable and several
// runs, asking for missing, repeated and tombstoned cells and
// a name longer than 32 bytes. GetRow's entries must come sorted by
// column name.
func TestDigestColumnsMatchesRowDigest(t *testing.T) {
	s := New(small())
	rng := rand.New(rand.NewSource(3))
	cols := []string{"a", "b", "", "skey", "zz", "c\x00", strings.Repeat("long", 10), "payload"}
	for i := 0; i < 400; i++ {
		c := model.Cell{Value: bytes.Repeat([]byte{'v'}, rng.Intn(30)), TS: int64(rng.Intn(50))}
		if rng.Intn(4) == 0 {
			c = model.Cell{TS: c.TS, Tombstone: true}
		}
		if err := s.Apply(fmt.Sprintf("row-%02d", rng.Intn(12)), cols[rng.Intn(len(cols)-1)], c); err != nil {
			t.Fatal(err) // the last column is never written: always missing
		}
	}
	if st := s.Stats(); st.Flushes < 3 || s.RunCount() == 0 {
		t.Fatalf("workload too small to spread rows over runs: %+v", st)
	}
	for i := 0; i < 300; i++ {
		row := fmt.Sprintf("row-%02d", rng.Intn(14)) // rows 12 and 13 do not exist
		ask := make([]string, rng.Intn(6))
		for j := range ask {
			ask[j] = cols[rng.Intn(len(cols))]
		}
		if rng.Intn(3) == 0 && len(ask) > 0 {
			ask = append(ask, ask[0]) // a repeated column
		}
		cells := s.GetColumns(row, ask)
		named := model.Row{}
		for j, col := range ask {
			named[col] = cells[j]
		}
		if got, want := s.DigestColumns(row, ask), model.RowDigest(named); got != want {
			t.Fatalf("DigestColumns(%q, %q) = %#x, RowDigest(GetColumns) = %#x", row, ask, got, want)
		}
		if got, want := model.DigestCells(ask, cells), model.RowDigest(named); got != want {
			t.Fatalf("DigestCells(%q, GetColumns) = %#x, RowDigest = %#x", ask, got, want)
		}
		es := s.GetRow(row)
		whole := model.Row{}
		for j, e := range es {
			if j > 0 && bytes.Compare(es[j-1].Key, e.Key) >= 0 {
				t.Fatalf("GetRow(%q) out of order: %q before %q", row, es[j-1].Key, e.Key)
			}
			whole[string(e.Key)] = e.Cell
		}
		if got, want := s.DigestRow(row), model.RowDigest(whole); got != want {
			t.Fatalf("DigestRow(%q) = %#x, RowDigest(GetRow) = %#x", row, got, want)
		}
	}
}

// TestRowEntriesSurviveRewrite pins what GetRow's aliasing relies on:
// the names and values it hands out stay byte-identical while the same
// cells are overwritten, the memtable they came from is flushed, the
// runs they came from are compacted away, other rows are written and
// later reads reuse the merge buffers.
func TestRowEntriesSurviveRewrite(t *testing.T) {
	s := New(Options{FlushBytes: 1 << 20, CompactAt: 3, Seed: 1})
	write := func(row string, ts int64, fill byte) {
		for _, col := range []string{"a", "b", strings.Repeat("c", 40)} {
			if err := s.Apply(row, col, model.Cell{Value: bytes.Repeat([]byte{fill}, 8), TS: ts}); err != nil {
				t.Fatal(err)
			}
		}
	}
	write("r", 1, 'x')
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	write("r", 2, 'y') // "r" now in a run and the memtable
	held := s.GetRow("r")
	want := make([]model.Entry, len(held))
	for i, e := range held {
		want[i] = model.Entry{Key: bytes.Clone(e.Key), Cell: model.Cell{Value: bytes.Clone(e.Cell.Value), TS: e.Cell.TS}}
	}
	for ts := int64(3); ts < 9; ts++ {
		write("r", ts, byte('a'+ts))
		for i := 0; i < 20; i++ {
			write(fmt.Sprintf("other-%d-%d", ts, i), ts, 'o')
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		_, _ = s.GetRow("r"), s.DigestRow("r") // reads reuse the merge buffers
	}
	if st := s.Stats(); st.Compactions == 0 {
		t.Fatalf("no compaction ran: %+v", st)
	}
	for i, e := range held {
		if !bytes.Equal(e.Key, want[i].Key) || !bytes.Equal(e.Cell.Value, want[i].Cell.Value) || e.Cell.TS != want[i].Cell.TS {
			t.Fatalf("entry %d changed under rewrites: %q=%q@%d, was %q=%q@%d",
				i, e.Key, e.Cell.Value, e.Cell.TS, want[i].Key, want[i].Cell.Value, want[i].Cell.TS)
		}
	}
	if len(held) != 3 || string(held[0].Cell.Value) != "yyyyyyyy" {
		t.Fatalf("GetRow before the rewrites = %v, want the three ts=2 cells", held)
	}
}

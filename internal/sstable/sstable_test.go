package sstable

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"vstore/internal/model"
)

func mkEntries(n int) []model.Entry {
	out := make([]model.Entry, n)
	for i := range out {
		out[i] = model.Entry{
			Key:  []byte(fmt.Sprintf("key-%05d", i)),
			Cell: model.Cell{Value: []byte(fmt.Sprintf("val-%d", i)), TS: int64(i)},
		}
	}
	return out
}

func TestBuildGet(t *testing.T) {
	tbl := Build(mkEntries(100))
	if tbl.Len() != 100 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	for i := 0; i < 100; i++ {
		c, ok := tbl.Get([]byte(fmt.Sprintf("key-%05d", i)))
		if !ok || c.TS != int64(i) {
			t.Fatalf("Get key-%05d = %v,%v", i, c, ok)
		}
	}
	if _, ok := tbl.Get([]byte("missing")); ok {
		t.Fatal("Get of absent key returned ok")
	}
	if _, ok := tbl.Get([]byte("key-00010x")); ok {
		t.Fatal("Get of near-miss key returned ok")
	}
}

func TestBuildEmpty(t *testing.T) {
	tbl := Build(nil)
	if tbl.Len() != 0 {
		t.Fatal("empty table has entries")
	}
	if _, ok := tbl.Get([]byte("x")); ok {
		t.Fatal("Get on empty table returned ok")
	}
	if tbl.Iter().Valid() {
		t.Fatal("iterator on empty table valid")
	}
}

func TestBuildPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build accepted unsorted input")
		}
	}()
	Build([]model.Entry{
		{Key: []byte("b")},
		{Key: []byte("a")},
	})
}

func TestBuildPanicsOnDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build accepted duplicate keys")
		}
	}()
	Build([]model.Entry{
		{Key: []byte("a")},
		{Key: []byte("a")},
	})
}

func TestScanPrefix(t *testing.T) {
	var entries []model.Entry
	for _, row := range []string{"aa", "ab", "b"} {
		for _, col := range []string{"c1", "c2"} {
			entries = append(entries, model.Entry{Key: model.EncodeKey(row, col), Cell: model.Cell{TS: 1}})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].Key, entries[j].Key) < 0 })
	tbl := Build(entries)
	got := tbl.ScanPrefix(model.RowPrefix("ab"))
	if len(got) != 2 {
		t.Fatalf("ScanPrefix(ab) = %d entries, want 2", len(got))
	}
	if got := tbl.ScanPrefix(model.RowPrefix("zz")); len(got) != 0 {
		t.Fatalf("ScanPrefix(zz) = %d entries, want 0", len(got))
	}
}

func TestIterVisitsAll(t *testing.T) {
	entries := mkEntries(37)
	tbl := Build(entries)
	i := 0
	for it := tbl.Iter(); it.Valid(); it.Next() {
		if !bytes.Equal(it.Entry().Key, entries[i].Key) {
			t.Fatalf("iterator out of order at %d", i)
		}
		i++
	}
	if i != 37 {
		t.Fatalf("visited %d entries", i)
	}
}

func TestMergeRunsLWW(t *testing.T) {
	runA := []model.Entry{
		{Key: []byte("k1"), Cell: model.Cell{Value: []byte("old"), TS: 1}},
		{Key: []byte("k2"), Cell: model.Cell{Value: []byte("only-a"), TS: 1}},
	}
	runB := []model.Entry{
		{Key: []byte("k1"), Cell: model.Cell{Value: []byte("new"), TS: 2}},
		{Key: []byte("k3"), Cell: model.Cell{Value: []byte("only-b"), TS: 1}},
	}
	merged := MergeRuns([][]model.Entry{runA, runB}, false)
	if len(merged) != 3 {
		t.Fatalf("merged %d entries, want 3", len(merged))
	}
	if string(merged[0].Cell.Value) != "new" {
		t.Fatalf("k1 merged to %v", merged[0].Cell)
	}
	// Run order must not matter.
	merged2 := MergeRuns([][]model.Entry{runB, runA}, false)
	if !reflect.DeepEqual(cellsOf(merged), cellsOf(merged2)) {
		t.Fatal("MergeRuns depends on run order")
	}
}

func cellsOf(es []model.Entry) []model.Cell {
	out := make([]model.Cell, len(es))
	for i, e := range es {
		out[i] = e.Cell
	}
	return out
}

func TestMergeRunsTombstones(t *testing.T) {
	runA := []model.Entry{{Key: []byte("k"), Cell: model.Cell{Value: []byte("v"), TS: 1}}}
	runB := []model.Entry{{Key: []byte("k"), Cell: model.Cell{TS: 2, Tombstone: true}}}
	kept := MergeRuns([][]model.Entry{runA, runB}, false)
	if len(kept) != 1 || !kept[0].Cell.Tombstone {
		t.Fatalf("tombstone not preserved: %v", kept)
	}
	dropped := MergeRuns([][]model.Entry{runA, runB}, true)
	if len(dropped) != 0 {
		t.Fatalf("full compaction kept tombstone: %v", dropped)
	}
	// A tombstone older than the value must NOT shadow it.
	runC := []model.Entry{{Key: []byte("k"), Cell: model.Cell{TS: 0, Tombstone: true}}}
	res := MergeRuns([][]model.Entry{runA, runC}, true)
	if len(res) != 1 || string(res[0].Cell.Value) != "v" {
		t.Fatalf("old tombstone shadowed newer value: %v", res)
	}
}

func TestMergeRunsRandomizedAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		oracle := map[string]model.Cell{}
		var runs [][]model.Entry
		for ri := 0; ri < 4; ri++ {
			m := map[string]model.Cell{}
			for i := 0; i < 20; i++ {
				k := fmt.Sprintf("k%02d", r.Intn(30))
				c := model.Cell{Value: []byte{byte(r.Intn(5) + 'a')}, TS: int64(r.Intn(10))}
				if r.Intn(5) == 0 {
					c = model.Cell{TS: c.TS, Tombstone: true}
				}
				// Within a run, keys are unique (LWW-merge as a memtable would).
				if old, ok := m[k]; ok {
					c = model.Merge(old, c)
				}
				m[k] = c
			}
			var run []model.Entry
			for k, c := range m {
				run = append(run, model.Entry{Key: []byte(k), Cell: c})
				oracle[k] = model.Merge(oracle[k], c)
			}
			sort.Slice(run, func(i, j int) bool { return bytes.Compare(run[i].Key, run[j].Key) < 0 })
			runs = append(runs, run)
		}
		merged := MergeRuns(runs, false)
		if len(merged) != len(oracle) {
			t.Fatalf("merged %d keys, oracle %d", len(merged), len(oracle))
		}
		for _, e := range merged {
			want := oracle[string(e.Key)]
			if !e.Cell.Equal(want) {
				t.Fatalf("key %q merged to %v, oracle %v", e.Key, e.Cell, want)
			}
		}
	}
}

func TestEntriesRoundTrip(t *testing.T) {
	entries := mkEntries(50)
	entries[7].Cell = model.Cell{TS: -3, Tombstone: true}
	entries[9].Cell = model.Cell{TS: 0, Value: nil}
	back, err := UnmarshalEntries(appendEntries(nil, entries))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(entries) {
		t.Fatalf("round trip len %d != %d", len(back), len(entries))
	}
	for i := range entries {
		a, b := entries[i], back[i]
		if !bytes.Equal(a.Key, b.Key) || !a.Cell.Equal(b.Cell) {
			t.Fatalf("entry %d mismatch: %v vs %v", i, a, b)
		}
	}
}

func TestUnmarshalEntriesCorrupt(t *testing.T) {
	data := appendEntries(nil, mkEntries(10))
	for _, cut := range []int{0, 1, len(data) / 2, len(data) - 1} {
		if _, err := UnmarshalEntries(data[:cut]); err == nil {
			t.Fatalf("UnmarshalEntries accepted truncation at %d", cut)
		}
	}
	if _, err := UnmarshalEntries(append(data, 0)); err == nil {
		t.Fatal("UnmarshalEntries accepted trailing garbage")
	}
}

// Property: serialization round-trips arbitrary entry payloads.
func TestEntriesQuick(t *testing.T) {
	f := func(keys [][]byte, vals [][]byte, ts []int64) bool {
		m := map[string]model.Cell{}
		for i, k := range keys {
			c := model.Cell{}
			if i < len(ts) {
				c.TS = ts[i]
			}
			if i < len(vals) {
				c.Value = vals[i]
			}
			if len(c.Value) == 0 {
				c.Value = nil
			}
			m[string(k)] = c
		}
		var entries []model.Entry
		for k, c := range m {
			entries = append(entries, model.Entry{Key: []byte(k), Cell: c})
		}
		sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].Key, entries[j].Key) < 0 })
		back, err := UnmarshalEntries(appendEntries(nil, entries))
		if err != nil || len(back) != len(entries) {
			return false
		}
		for i := range entries {
			if !bytes.Equal(back[i].Key, entries[i].Key) || !back[i].Cell.Equal(entries[i].Cell) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSSTableGet(b *testing.B) {
	tbl := Build(mkEntries(100000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Get([]byte(fmt.Sprintf("key-%05d", i%100000)))
	}
}

// FuzzUnmarshalEntries: any byte string that decodes must re-encode to
// an equivalent run, and the decoder must never panic on garbage.
func FuzzUnmarshalEntries(f *testing.F) {
	f.Add(appendEntries(nil, mkEntries(3)))
	// One entry, key "b", whose cell carries the metadata cells were
	// once written with: value "v" at timestamp 42, dot 1:7, context
	// {0:3, 1:7}.
	f.Add([]byte{0x01, 0x01, 'b', 0x54, 0x02, 0x01, 'v', 0x01, 0x07, 0x02, 0x00, 0x03, 0x01, 0x07})
	f.Add([]byte{0x05, 0x00, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := UnmarshalEntries(data)
		if err != nil {
			return
		}
		out, err := UnmarshalEntries(appendEntries(nil, entries))
		if err != nil {
			t.Fatalf("re-decode of re-encoding failed: %v", err)
		}
		if len(out) != len(entries) {
			t.Fatalf("entry count drifted: %d vs %d", len(out), len(entries))
		}
		for i := range entries {
			a, b := entries[i], out[i]
			if !bytes.Equal(a.Key, b.Key) || !a.Cell.Equal(b.Cell) {
				t.Fatalf("entry %d drifted: %+v vs %+v", i, a, b)
			}
		}
	})
}

// oldRun is an entry run written while cells carried dotted-version-
// vector metadata, and the plain entries it holds: "a" undotted, "b" a
// value with dot 0:4 and context {0:4}, "c" a tombstone with dot 2:9
// and context {0:4, 2:9}, "d" a merged survivor with context {1:1} and
// no dot.
func oldRun() ([]byte, []model.Entry) {
	run := []byte{
		0x04,
		0x01, 'a', 0x02, 0x00, 0x02, 'v', '1',
		0x01, 'b', 0x04, 0x02, 0x02, 'v', '2', 0x00, 0x04, 0x01, 0x00, 0x04,
		0x01, 'c', 0x06, 0x03, 0x00, 0x02, 0x09, 0x02, 0x00, 0x04, 0x02, 0x09,
		0x01, 'd', 0x08, 0x02, 0x02, 'v', '4', 0x00, 0x00, 0x01, 0x01, 0x01,
	}
	return run, []model.Entry{
		{Key: []byte("a"), Cell: model.Cell{Value: []byte("v1"), TS: 1}},
		{Key: []byte("b"), Cell: model.Cell{Value: []byte("v2"), TS: 2}},
		{Key: []byte("c"), Cell: model.Cell{TS: 3, Tombstone: true}},
		{Key: []byte("d"), Cell: model.Cell{Value: []byte("v4"), TS: 4}},
	}
}

// TestEntriesRoundTripDots: a run of dotted cells, as sstables written
// before the store dropped the metadata hold them, decodes entry by
// entry to the plain cells.
func TestEntriesRoundTripDots(t *testing.T) {
	run, want := oldRun()
	out, err := UnmarshalEntries(run)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(want) {
		t.Fatalf("%d entries, want %d", len(out), len(want))
	}
	for i := range want {
		if !bytes.Equal(out[i].Key, want[i].Key) || !out[i].Cell.Equal(want[i].Cell) {
			t.Fatalf("entry %d decoded as %+v, want %+v", i, out[i], want[i])
		}
	}
}

// TestEntriesDeterministicWithDots: an old run rewritten, as compaction
// rewrites it, is byte for byte the run of its plain entries.
func TestEntriesDeterministicWithDots(t *testing.T) {
	run, plain := oldRun()
	out, err := UnmarshalEntries(run)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := appendEntries(nil, out), appendEntries(nil, plain); !bytes.Equal(got, want) {
		t.Fatalf("old run re-encoded as % x, want % x", got, want)
	}
}

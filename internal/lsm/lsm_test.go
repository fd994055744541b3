package lsm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"vstore/internal/model"
)

// small returns options that flush and compact aggressively so tests
// exercise the multi-run read path.
func small() Options {
	return Options{FlushBytes: 256, CompactAt: 4, Seed: 1}
}

func TestApplyGetAcrossFlushes(t *testing.T) {
	s := New(small())
	for i := 0; i < 200; i++ {
		s.Apply(fmt.Sprintf("row%03d", i), "c", model.Cell{Value: []byte(fmt.Sprint(i)), TS: int64(i)})
	}
	st := s.Stats()
	if st.Flushes == 0 {
		t.Fatalf("expected flushes with tiny threshold, stats %+v", st)
	}
	for i := 0; i < 200; i++ {
		c, ok := s.Get(fmt.Sprintf("row%03d", i), "c")
		if !ok || string(c.Value) != fmt.Sprint(i) {
			t.Fatalf("row%03d = %v,%v", i, c, ok)
		}
	}
}

func TestLWWAcrossRuns(t *testing.T) {
	s := New(Options{Seed: 1})
	// Newer timestamp written first, flushed into a segment...
	s.Apply("r", "c", model.Cell{Value: []byte("winner"), TS: 100})
	s.Flush()
	// ...then an older timestamp lands in the memtable. The "newer
	// run" (memtable) holds the older cell; the read must still
	// return the winner by timestamp.
	s.Apply("r", "c", model.Cell{Value: []byte("loser"), TS: 50})
	c, _ := s.Get("r", "c")
	if string(c.Value) != "winner" {
		t.Fatalf("read returned %v; LWW across runs broken", c)
	}
}

func TestTombstoneShadowsAcrossRuns(t *testing.T) {
	s := New(Options{Seed: 1})
	s.Apply("r", "c", model.Cell{Value: []byte("v"), TS: 1})
	s.Flush()
	s.Apply("r", "c", model.Cell{TS: 2, Tombstone: true})
	c, ok := s.Get("r", "c")
	if !ok || !c.Tombstone {
		t.Fatalf("tombstone not visible: %v,%v", c, ok)
	}
	if !c.IsNull() {
		t.Fatal("tombstoned cell should read as null")
	}
}

func TestCompactionPreservesContent(t *testing.T) {
	s := New(small())
	oracle := map[string]model.Cell{}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		row := fmt.Sprintf("row%02d", r.Intn(50))
		col := fmt.Sprintf("c%d", r.Intn(3))
		c := model.Cell{Value: []byte(fmt.Sprint(i)), TS: int64(r.Intn(500))}
		if r.Intn(10) == 0 {
			c = model.Cell{TS: c.TS, Tombstone: true}
		}
		s.Apply(row, col, c)
		k := row + "\x00" + col
		oracle[k] = model.Merge(oracle[k], c)
	}
	if s.Stats().Compactions == 0 {
		t.Fatalf("expected compactions, stats %+v", s.Stats())
	}
	for k, want := range oracle {
		var row, col string
		fmt.Sscanf(k, "%s", &row) // split manually below instead
		for i := range k {
			if k[i] == 0 {
				row, col = k[:i], k[i+1:]
				break
			}
		}
		got, ok := s.Get(row, col)
		if !ok || !got.Equal(want) {
			t.Fatalf("(%s,%s) = %v,%v want %v", row, col, got, ok, want)
		}
	}
}

func TestGetRow(t *testing.T) {
	s := New(small())
	s.Apply("r", "a", model.Cell{Value: []byte("1"), TS: 1})
	s.Flush()
	s.Apply("r", "b", model.Cell{Value: []byte("2"), TS: 2})
	s.Apply("r", "a", model.Cell{Value: []byte("1b"), TS: 3})
	s.Apply("other", "a", model.Cell{Value: []byte("x"), TS: 1})
	row := s.GetRow("r")
	if len(row) != 2 {
		t.Fatalf("GetRow returned %d cells: %v", len(row), row)
	}
	if string(row[0].Key) != "a" || string(row[0].Cell.Value) != "1b" || string(row[1].Key) != "b" || string(row[1].Cell.Value) != "2" {
		t.Fatalf("GetRow content wrong: %v", row)
	}
}

func TestGetColumnsIncludesMissing(t *testing.T) {
	s := New(Options{Seed: 1})
	s.Apply("r", "a", model.Cell{Value: []byte("1"), TS: 1})
	row := s.GetColumns("r", []string{"a", "zzz"})
	if len(row) != 2 {
		t.Fatalf("GetColumns returned %d cells for 2 columns: %v", len(row), row)
	}
	if !row[1].Equal(model.NullCell) {
		t.Fatalf("missing column should be NullCell, got %v", row[1])
	}
	if string(row[0].Value) != "1" {
		t.Fatalf("present column wrong: %v", row[0])
	}
}

func TestSnapshotMergesRuns(t *testing.T) {
	s := New(Options{Seed: 1})
	s.Apply("r1", "c", model.Cell{Value: []byte("old"), TS: 1})
	s.Flush()
	s.Apply("r1", "c", model.Cell{Value: []byte("new"), TS: 2})
	s.Apply("r2", "c", model.Cell{Value: []byte("x"), TS: 1})
	snap := s.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries, want 2 (deduplicated)", len(snap))
	}
	for _, e := range snap {
		row, _, _ := model.DecodeKey(e.Key)
		if row == "r1" && string(e.Cell.Value) != "new" {
			t.Fatalf("snapshot kept stale cell: %v", e.Cell)
		}
	}
}

func TestCollectGarbage(t *testing.T) {
	s := New(Options{Seed: 1})
	s.Apply("r", "dead", model.Cell{TS: 5, Tombstone: true})
	s.Apply("r", "recent", model.Cell{TS: 50, Tombstone: true})
	s.Apply("r", "live", model.Cell{Value: []byte("v"), TS: 5})
	s.CollectGarbage(10)
	if _, ok := s.Get("r", "dead"); ok {
		t.Fatal("old tombstone survived GC")
	}
	if c, ok := s.Get("r", "recent"); !ok || !c.Tombstone {
		t.Fatal("recent tombstone must survive GC")
	}
	if c, ok := s.Get("r", "live"); !ok || string(c.Value) != "v" {
		t.Fatal("live cell lost in GC")
	}
}

func TestApplyEntries(t *testing.T) {
	s := New(Options{Seed: 1})
	entries := []model.Entry{
		{Key: model.EncodeKey("r1", "c"), Cell: model.Cell{Value: []byte("a"), TS: 1}},
		{Key: model.EncodeKey("r2", "c"), Cell: model.Cell{Value: []byte("b"), TS: 2}},
	}
	s.ApplyEntries(entries)
	if c, _ := s.Get("r2", "c"); string(c.Value) != "b" {
		t.Fatalf("ApplyEntries lost data: %v", c)
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	s := New(Options{FlushBytes: 512, CompactAt: 3, Seed: 1})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 300; i++ {
				row := fmt.Sprintf("row%d", r.Intn(30))
				switch r.Intn(4) {
				case 0, 1:
					s.Apply(row, "c", model.Cell{Value: []byte{byte(w)}, TS: int64(i*6 + w)})
				case 2:
					s.Get(row, "c")
				case 3:
					s.GetRow(row)
				}
			}
		}(w)
	}
	wg.Wait()
	// The engine must still answer reads after concurrent churn.
	if snap := s.Snapshot(); len(snap) == 0 {
		t.Fatal("store empty after concurrent writes")
	}
}

// Convergence property: two stores receiving the same set of updates
// in different orders end in identical state.
func TestReplicaConvergence(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		var updates []model.Entry
		for i := 0; i < 100; i++ {
			c := model.Cell{Value: []byte{byte(r.Intn(26) + 'a')}, TS: int64(r.Intn(40))}
			if r.Intn(6) == 0 {
				c = model.Cell{TS: c.TS, Tombstone: true}
			}
			updates = append(updates, model.Entry{
				Key:  model.EncodeKey(fmt.Sprintf("row%d", r.Intn(10)), fmt.Sprintf("c%d", r.Intn(2))),
				Cell: c,
			})
		}
		a := New(Options{FlushBytes: 300, CompactAt: 3, Seed: 1})
		b := New(Options{FlushBytes: 5000, Seed: 2})
		for _, u := range updates {
			a.ApplyEntries([]model.Entry{u})
		}
		for _, i := range r.Perm(len(updates)) {
			b.ApplyEntries([]model.Entry{updates[i]})
		}
		sa, sb := a.Snapshot(), b.Snapshot()
		if len(sa) != len(sb) {
			t.Fatalf("trial %d: snapshots differ in size %d vs %d", trial, len(sa), len(sb))
		}
		for i := range sa {
			if string(sa[i].Key) != string(sb[i].Key) || !sa[i].Cell.Equal(sb[i].Cell) {
				t.Fatalf("trial %d: divergence at %d: %v vs %v", trial, i, sa[i], sb[i])
			}
		}
	}
}

func BenchmarkLSMApply(b *testing.B) {
	s := New(Options{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Apply(fmt.Sprintf("row%05d", i%10000), "c", model.Cell{Value: []byte("v"), TS: int64(i)})
	}
}

func BenchmarkLSMGet(b *testing.B) {
	s := New(Options{Seed: 1})
	for i := 0; i < 10000; i++ {
		s.Apply(fmt.Sprintf("row%05d", i), "c", model.Cell{Value: []byte("v"), TS: int64(i)})
	}
	s.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(fmt.Sprintf("row%05d", i%10000), "c")
	}
}

// TestOlderRunHoldsNewestTimestamp guards the no-early-exit invariant:
// timestamps are client-supplied, so the newest run can hold an OLDER
// cell than a run flushed long before it. A read that stopped at the
// newest run containing the key would return the wrong value.
func TestOlderRunHoldsNewestTimestamp(t *testing.T) {
	s := New(Options{FlushBytes: 1 << 20, CompactAt: 100, Seed: 1})
	// First flush: the future-timestamped winner lands in the OLDEST run.
	s.Apply("row", "c", model.Cell{Value: []byte("winner"), TS: 100})
	s.Flush()
	// Later flushes hold older timestamps for the same key.
	s.Apply("row", "c", model.Cell{Value: []byte("stale-a"), TS: 10})
	s.Flush()
	s.Apply("row", "c", model.Cell{Value: []byte("stale-b"), TS: 20})
	s.Flush()
	if st := s.Stats(); st.Segments < 3 {
		t.Fatalf("want >= 3 runs, have %d", st.Segments)
	}
	if c, ok := s.Get("row", "c"); !ok || string(c.Value) != "winner" || c.TS != 100 {
		t.Fatalf("Get = %v,%v; want the ts=100 winner from the oldest run", c, ok)
	}
	if row := s.GetRow("row"); len(row) != 1 || string(row[0].Cell.Value) != "winner" {
		t.Fatalf("GetRow = %v; want the ts=100 winner from the oldest run", row)
	}
	if row := s.GetColumns("row", []string{"c"}); string(row[0].Value) != "winner" {
		t.Fatalf("GetColumns = %v; want the ts=100 winner from the oldest run", row)
	}
}

// TestReadsPruneRuns checks that point and row reads skip runs that
// cannot contain the key and count the skips.
func TestReadsPruneRuns(t *testing.T) {
	s := New(Options{FlushBytes: 1 << 20, CompactAt: 100, Seed: 1})
	// Three disjoint runs over different rows.
	for r := 0; r < 3; r++ {
		for i := 0; i < 50; i++ {
			s.Apply(fmt.Sprintf("run%d-row%03d", r, i), "c", model.Cell{Value: []byte("v"), TS: int64(i)})
		}
		s.Flush()
	}
	if c, ok := s.Get("run1-row007", "c"); !ok || string(c.Value) != "v" {
		t.Fatalf("Get = %v,%v", c, ok)
	}
	st := s.Stats()
	if st.RunsPrunedPoint == 0 {
		t.Fatalf("point read over disjoint runs pruned nothing: %+v", st)
	}
	if row := s.GetRow("run2-row011"); len(row) != 1 {
		t.Fatalf("GetRow = %v", row)
	}
	if st := s.Stats(); st.RunsPrunedRow == 0 {
		t.Fatalf("row read over disjoint runs pruned nothing: %+v", st)
	}
}

// TestPointReadSkipsOlderRun checks that a point read skips, and counts,
// a run whose newest cell is older than the memtable's cell, and that
// the answer is the memtable's.
func TestPointReadSkipsOlderRun(t *testing.T) {
	s := New(Options{Seed: 1})
	s.Apply("r", "c", model.Cell{Value: []byte("old"), TS: 5})
	s.Flush()
	s.Apply("r", "c", model.Cell{Value: []byte("new"), TS: 10})
	before := s.Stats().RunsPrunedPoint
	if c, _ := s.Get("r", "c"); string(c.Value) != "new" {
		t.Fatalf("Get = %v, want the memtable's ts=10 cell", c)
	}
	if got := s.Stats().RunsPrunedPoint - before; got != 1 {
		t.Fatalf("the read pruned %d runs, want the one older run", got)
	}
}

// TestPointReadConsultsRunThatMayWin checks the two cases the timestamp
// skip must not touch: a run holding a newer cell than the memtable's,
// and a run whose cell ties the memtable's timestamp, where the
// tie-break decides. Both runs are consulted and their cells win, on
// reads and on the pre-images a write returns.
func TestPointReadConsultsRunThatMayWin(t *testing.T) {
	for _, tc := range []struct {
		name      string
		run, mem  model.Cell
		wantValue string
	}{
		{"newer run", model.Cell{Value: []byte("run"), TS: 20}, model.Cell{Value: []byte("mem"), TS: 10}, "run"},
		{"equal timestamps", model.Cell{Value: []byte("zzz"), TS: 10}, model.Cell{Value: []byte("aaa"), TS: 10}, "zzz"},
		{"equal-timestamp tombstone", model.Cell{TS: 10, Tombstone: true}, model.Cell{Value: []byte("mem"), TS: 10}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Options{Seed: 1})
			s.Apply("r", "c", tc.run)
			s.Flush()
			s.Apply("r", "c", tc.mem)
			before := s.Stats().RunsPrunedPoint
			want := model.Merge(tc.run, tc.mem)
			if string(want.Value) != tc.wantValue || !want.Equal(tc.run) {
				t.Fatalf("test case: the run's cell %v must win over %v", tc.run, tc.mem)
			}
			if c, _ := s.Get("r", "c"); !c.Equal(want) {
				t.Fatalf("Get = %v, want the run's %v", c, want)
			}
			if c := s.GetColumns("r", []string{"c"})[0]; !c.Equal(want) {
				t.Fatalf("GetColumns = %v, want the run's %v", c, want)
			}
			old := make([]model.Cell, 1)
			if err := s.ApplyRow("r", []model.ColumnUpdate{{Column: "c", Cell: model.Cell{Value: []byte("a"), TS: 1}}}, old); err != nil || !old[0].Equal(want) {
				t.Fatalf("pre-image = %v (err %v), want the run's %v", old[0], err, want)
			}
			if got := s.Stats().RunsPrunedPoint - before; got != 0 {
				t.Fatalf("%d runs pruned, want the run consulted every time", got)
			}
		})
	}
}

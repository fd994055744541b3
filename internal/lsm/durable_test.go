package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"vstore/internal/model"
	"vstore/internal/physical"
	physfs "vstore/internal/physical/fs"
	physmem "vstore/internal/physical/mem"
	"vstore/internal/sstable"
	"vstore/internal/wal"
)

// TestDurableStoreCrashRecovery drives a WAL-backed store through
// flushes and a compaction, crashes it (no final sync), and rebuilds
// from the recovered runs + WAL tail. Every acknowledged cell must
// come back with its winning timestamp.
func TestDurableStoreCrashRecovery(t *testing.T) {
	b := physfs.New(t.TempDir())
	st, err := wal.OpenStorage(b, wal.Options{Policy: wal.SyncAlways, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{FlushBytes: 256, CompactAt: 3, Seed: 1, Persist: st.Table("t")}
	s := New(opts)

	want := map[string]model.Cell{}
	for i := 0; i < 120; i++ {
		row := fmt.Sprintf("row-%d", i%10)
		col := fmt.Sprintf("col-%d", i%4)
		c := model.Cell{Value: []byte(fmt.Sprintf("v%d", i)), TS: int64(i + 1)}
		if err := s.Apply(row, col, c); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		want[row+"/"+col] = c
	}
	stats := s.Stats()
	if stats.Flushes == 0 || stats.Compactions == 0 {
		t.Fatalf("workload too small to exercise durable flush+compact: %+v", stats)
	}
	if err := st.Abandon(); err != nil { // crash
		t.Fatal(err)
	}

	st2, err := wal.OpenStorage(b, wal.Options{Policy: wal.SyncAlways, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	rt := rec.Tables["t"]
	runs := make([]Run, 0, len(rt.Runs))
	for _, r := range rt.Runs {
		runs = append(runs, Run{ID: r.ID, Table: r.Table})
	}
	s2 := NewFromRuns(Options{FlushBytes: 256, CompactAt: 3, Seed: 1, Persist: st2.Table("t")}, runs)
	s2.Recover(rt.Tail)

	for key, c := range want {
		var row, col string
		for i := range key {
			if key[i] == '/' {
				row, col = key[:i], key[i+1:]
				break
			}
		}
		got, ok := s2.Get(row, col)
		if !ok || string(got.Value) != string(c.Value) || got.TS != c.TS {
			t.Fatalf("recovered Get(%s,%s) = %+v, %v; want %+v", row, col, got, ok, c)
		}
	}

	// The recovered store keeps working durably: more writes, another
	// flush, and the run ids it reports back stay coherent.
	if err := s2.Apply("row-0", "col-0", model.Cell{Value: []byte("post"), TS: 1000}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get("row-0", "col-0"); !ok || string(got.Value) != "post" {
		t.Fatalf("post-recovery write lost: %+v, %v", got, ok)
	}
}

// reopen crashes the storage under b (no final sync) and rebuilds a
// store of table t from what it left.
func reopen(t *testing.T, st *wal.Storage, b physical.Backend, opts Options) (*Store, *wal.Storage, wal.RecoveryStats) {
	t.Helper()
	if err := st.Abandon(); err != nil {
		t.Fatal(err)
	}
	if m, ok := b.(*physmem.Backend); ok {
		m.Crash()
	}
	st2, err := wal.OpenStorage(b, wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	rt := rec.Tables["t"]
	runs := make([]Run, 0, len(rt.Runs))
	for _, r := range rt.Runs {
		runs = append(runs, Run{ID: r.ID, Table: r.Table})
	}
	opts.Persist = st2.Table("t")
	s := NewFromRuns(opts, runs)
	s.Recover(rt.Tail)
	return s, st2, rec.Stats
}

// TestDurableRowCrossingFlush fills a durable store's memtable to just
// under its flush threshold, writes a row that crosses it at its first
// cells, then crashes: every cell comes back. A flush inside the row
// would drop the log segment holding the row's record before the rest
// of its cells were applied, and they would be lost.
func TestDurableRowCrossingFlush(t *testing.T) {
	b := physmem.New()
	st, err := wal.OpenStorage(b, wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{FlushBytes: 256, CompactAt: 3, Seed: 1}
	opts.Persist = st.Table("t")
	s := New(opts)
	var want []model.Entry
	apply := func(row string, updates ...model.ColumnUpdate) {
		t.Helper()
		if err := s.ApplyRow(row, updates, nil); err != nil {
			t.Fatal(err)
		}
		for _, u := range updates {
			want = append(want, model.Entry{Key: model.EncodeKey(row, u.Column), Cell: u.Cell})
		}
	}
	for i := 0; s.mem.ApproxBytes() < opts.FlushBytes-40; i++ {
		apply(fmt.Sprintf("pre-%d", i), model.Update("c", []byte("filler"), 1))
	}
	if s.Stats().Flushes != 0 {
		t.Fatal("filled past the threshold")
	}
	wide := make([]model.ColumnUpdate, 8)
	for i := range wide {
		wide[i] = model.Update(fmt.Sprintf("col-%02d", i), []byte(fmt.Sprintf("value-%02d", i)), 2)
	}
	apply("wide", wide...)
	if st := s.Stats(); st.Flushes != 1 || st.MemtableCells != 0 {
		t.Fatalf("the row did not flush whole: %+v", st)
	}

	s2, _, _ := reopen(t, st, b, opts)
	for _, e := range want {
		row, col, _ := model.DecodeKey(e.Key)
		if got, ok := s2.Get(row, col); !ok || !got.Equal(e.Cell) {
			t.Fatalf("recovered %s/%s = %+v, %v; want %+v", row, col, got, ok, e.Cell)
		}
	}
}

// failPersist is a log whose appends fail.
type failPersist struct{}

func (failPersist) AppendMutations([]model.Entry) error                  { return errors.New("log failed") }
func (failPersist) FlushRun(*sstable.Table) (uint64, error)              { return 0, nil }
func (failPersist) ReplaceRuns([]uint64, *sstable.Table) (uint64, error) { return 0, nil }

// TestApplyRowLogFailureAppliesNothing: a row whose record cannot be
// logged leaves the store as it was — no cell of it applied, pre-images
// and all.
func TestApplyRowLogFailureAppliesNothing(t *testing.T) {
	s := New(Options{FlushBytes: 1 << 20, Seed: 1, Persist: failPersist{}})
	row := []model.ColumnUpdate{model.Update("a", []byte("x"), 1), model.Update("b", []byte("y"), 1)}
	if err := s.ApplyRow("r", row, make([]model.Cell, 2)); err == nil {
		t.Fatal("ApplyRow succeeded with a failing log")
	}
	if err := s.ApplyEntries([]model.Entry{{Key: model.EncodeKey("r", "c"), Cell: model.Cell{TS: 1}}}); err == nil {
		t.Fatal("ApplyEntries succeeded with a failing log")
	}
	if got := s.GetRow("r"); len(got) != 0 {
		t.Fatalf("failed writes applied %v", got)
	}
	if st := s.Stats(); st.MemtableCells != 0 {
		t.Fatalf("failed writes left %d cells in the memtable", st.MemtableCells)
	}
}

// piecePersist forwards to a WAL table and records the size of every
// record it is asked to write.
type piecePersist struct {
	*wal.TableStorage
	pieces []int
}

func (p *piecePersist) AppendMutations(es []model.Entry) error {
	n := 0
	for _, e := range es {
		n += entryBytes(e)
	}
	p.pieces = append(p.pieces, n)
	return p.TableStorage.AppendMutations(es)
}

// TestApplyEntriesSplitsLargeBatch hands a durable store a replicated
// batch of three times maxBatchBytes: it is logged in records that each
// stay within the bound, and after a crash every entry replays.
func TestApplyEntriesSplitsLargeBatch(t *testing.T) {
	b := physmem.New()
	st, err := wal.OpenStorage(b, wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	p := &piecePersist{TableStorage: st.Table("t")}
	opts := Options{FlushBytes: 64 << 20, Seed: 1}
	s := New(Options{FlushBytes: opts.FlushBytes, Seed: opts.Seed, Persist: p})
	val := bytes.Repeat([]byte{'v'}, 1000)
	var batch []model.Entry
	for i := 0; len(batch)*len(val) < 3*maxBatchBytes; i++ {
		batch = append(batch, model.Entry{Key: model.EncodeKey(fmt.Sprintf("r%05d", i), "c"), Cell: model.Cell{Value: val, TS: int64(i)}})
	}
	if err := s.ApplyEntries(batch); err != nil {
		t.Fatal(err)
	}
	if len(p.pieces) < 4 {
		t.Fatalf("batch of %d entries logged in %d records", len(batch), len(p.pieces))
	}
	for i, n := range p.pieces {
		if n > maxBatchBytes {
			t.Fatalf("record %d holds %d bytes, over %d", i, n, maxBatchBytes)
		}
	}

	s2, _, stats := reopen(t, st, b, opts)
	if stats.RecordsReplayed != len(p.pieces) {
		t.Fatalf("replayed %d records, logged %d", stats.RecordsReplayed, len(p.pieces))
	}
	if got := s2.Snapshot(); len(got) != len(batch) {
		t.Fatalf("recovered %d entries, want %d", len(got), len(batch))
	}
	for _, e := range batch {
		row, col, _ := model.DecodeKey(e.Key)
		if got, ok := s2.Get(row, col); !ok || !got.Equal(e.Cell) {
			t.Fatalf("recovered %s = %+v, %v", row, got, ok)
		}
	}
}

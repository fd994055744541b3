package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"vstore/internal/model"
	"vstore/internal/physical/mem"
	"vstore/internal/sstable"
	"vstore/internal/wal"
)

// tierOptions flush every kilobyte or so and compact at four runs, so
// the policy tests' script makes dozens of flushes and compactions.
func tierOptions(p Persist) Options {
	return Options{FlushBytes: 1 << 10, CompactAt: 4, Seed: 3, Persist: p}
}

// Keys the script pins: "future" holds a cell from far in the future,
// written first and so kept by the oldest run, that the stale writes
// after it must never beat; "shadow" holds a live cell written first
// and a tombstone written mid-script, which must shadow it from a newer
// run while the live cell still sits in an older one.
var (
	futureKey = model.EncodeKey("future", "c")
	shadowKey = model.EncodeKey("shadow", "c")
)

// tierScript is the policy tests' script: row writes, replicated entry
// batches, stale and tied timestamps and tombstones over a table that
// grows by a row every eight steps, plus the two pinned keys. oracle holds the LWW winner of every
// storage key written so far: what the store must return.
type tierScript struct {
	rng      *rand.Rand
	oracle   map[string]model.Cell
	shadowAt int
}

func newTierScript(seed int64, shadowAt int) *tierScript {
	return &tierScript{rng: rand.New(rand.NewSource(seed)), oracle: map[string]model.Cell{}, shadowAt: shadowAt}
}

var tierCols = []string{"a", "b", "", "skey", "zz", "payload"}

func (sc *tierScript) cell(i int) model.Cell {
	c := model.Cell{TS: int64(sc.rng.Intn(200)), Value: bytes.Repeat([]byte{byte('a' + i%26)}, sc.rng.Intn(40))}
	if sc.rng.Intn(6) == 0 {
		c = model.Cell{TS: c.TS, Tombstone: true}
	}
	return c
}

// step applies step i of the script to s.
func (sc *tierScript) step(t *testing.T, s *Store, i int) {
	t.Helper()
	apply := func(row string, updates ...model.ColumnUpdate) {
		t.Helper()
		if err := s.ApplyRow(row, updates, nil); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		for _, u := range updates {
			k := string(model.EncodeKey(row, u.Column))
			sc.oracle[k] = model.Merge(sc.oracle[k], u.Cell)
		}
	}
	switch r := sc.rng.Intn(20); {
	case i == 0:
		apply("future", model.ColumnUpdate{Column: "c", Cell: model.Cell{Value: []byte("winner"), TS: 1 << 40}})
		apply("shadow", model.ColumnUpdate{Column: "c", Cell: model.Cell{Value: []byte("live"), TS: 100}})
	case i == sc.shadowAt:
		apply("shadow", model.ColumnUpdate{Column: "c", Cell: model.Cell{TS: 1000, Tombstone: true}})
	case r == 0:
		apply("future", model.ColumnUpdate{Column: "c", Cell: sc.cell(i)})
	case r <= 2:
		entries := make([]model.Entry, 1+sc.rng.Intn(4))
		for j := range entries {
			entries[j] = model.Entry{
				Key:  model.EncodeKey(fmt.Sprintf("row-%d", sc.rng.Intn(16+i/8)), tierCols[sc.rng.Intn(len(tierCols))]),
				Cell: sc.cell(i),
			}
		}
		if err := s.ApplyEntries(entries); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		for _, e := range entries {
			k := string(e.Key)
			sc.oracle[k] = model.Merge(sc.oracle[k], e.Cell)
		}
	default:
		updates := make([]model.ColumnUpdate, 1+sc.rng.Intn(4))
		for j := range updates {
			updates[j] = model.ColumnUpdate{Column: tierCols[sc.rng.Intn(len(tierCols))], Cell: sc.cell(i)}
		}
		apply(fmt.Sprintf("row-%d", sc.rng.Intn(16+i/8)), updates...)
	}
}

// check compares every read of s with the oracle: Snapshot, then
// GetRow and GetColumns of every row, then ScanRows paged through the
// whole table.
func (sc *tierScript) check(t *testing.T, s *Store, step int) {
	t.Helper()
	keys := make([]string, 0, len(sc.oracle))
	for k := range sc.oracle {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := make([]model.Entry, len(keys))
	for i, k := range keys {
		want[i] = model.Entry{Key: []byte(k), Cell: sc.oracle[k]}
	}
	if got := s.Snapshot(); !sameEntries(got, want) {
		t.Fatalf("step %d: Snapshot has %d entries, oracle %d, or they differ", step, len(got), len(want))
	}

	var rows []string // storage-key order, as ScanRows pages
	byRow := map[string][]model.Entry{}
	for _, e := range want {
		row, col, err := model.DecodeKey(e.Key)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 || rows[len(rows)-1] != row {
			rows = append(rows, row)
		}
		byRow[row] = append(byRow[row], model.Entry{Key: []byte(col), Cell: e.Cell})
	}
	cols := append([]string{"never"}, tierCols...)
	cols = append(cols, "c")
	for _, row := range rows {
		if got := s.GetRow(row); !sameEntries(got, byRow[row]) {
			t.Fatalf("step %d: GetRow(%q) = %v, want %v", step, row, got, byRow[row])
		}
		got := s.GetColumns(row, cols)
		for i, col := range cols {
			w, ok := sc.oracle[string(model.EncodeKey(row, col))]
			if !ok {
				w = model.NullCell
			}
			if !got[i].Equal(w) {
				t.Fatalf("step %d: GetColumns(%q)[%q] = %v, want %v", step, row, col, got[i], w)
			}
		}
	}
	var scanned []string
	for page := s.ScanRows("", 7); len(page) > 0; page = s.ScanRows(page[len(page)-1], 7) {
		scanned = append(scanned, page...)
	}
	if !slices.Equal(scanned, rows) {
		t.Fatalf("step %d: ScanRows = %v, want %v", step, scanned, rows)
	}
}

// sameEntries compares entries by key and Cell.Equal: a run read back
// from disk holds an empty value as nil.
func sameEntries(a, b []model.Entry) bool {
	return slices.EqualFunc(a, b, func(x, y model.Entry) bool {
		return bytes.Equal(x.Key, y.Key) && x.Cell.Equal(y.Cell)
	})
}

// tierPersist is an in-memory Persist that keeps a MANIFEST the way
// wal.TableStorage does — a flush puts its run first, a compaction puts
// the merged run first in place of its inputs — and checks every
// compaction against the size-tiered rule as it is committed.
type tierPersist struct {
	t         *testing.T
	compactAt int
	// full marks compactions that may merge every run (CollectGarbage).
	full    bool
	next    uint64
	runs    []uint64 // newest first
	tables  map[uint64]*sstable.Table
	flushed []*sstable.Table // every flushed run, oldest first
	// merged is the set of runs compactions built.
	merged                       map[*sstable.Table]bool
	flushedBytes, compactedBytes int64
	partial                      int // compactions that left an older run out
}

func newTierPersist(t *testing.T, compactAt int) *tierPersist {
	return &tierPersist{t: t, compactAt: compactAt, tables: map[uint64]*sstable.Table{}, merged: map[*sstable.Table]bool{}}
}

func (p *tierPersist) AppendMutations([]model.Entry) error { return nil }

func (p *tierPersist) FlushRun(t *sstable.Table) (uint64, error) {
	p.next++
	p.runs = append([]uint64{p.next}, p.runs...)
	p.tables[p.next] = t
	p.flushed = append(p.flushed, t)
	p.flushedBytes += t.DataBytes()
	return p.next, nil
}

func (p *tierPersist) ReplaceRuns(old []uint64, merged *sstable.Table) (uint64, error) {
	k := len(old)
	if k > len(p.runs) || !slices.Equal(old, p.runs[:k]) {
		p.t.Fatalf("compaction of runs %v: not the newest runs of %v", old, p.runs)
	}
	if !p.full {
		sizes := make([]int64, len(p.runs))
		for i, id := range p.runs {
			sizes[i] = p.tables[id].DataBytes()
		}
		if len(p.runs) != p.compactAt {
			p.t.Fatalf("compaction at %d runs, want it at CompactAt=%d", len(p.runs), p.compactAt)
		}
		// k is at least two and the smallest count whose runs together
		// hold no more than the next older run; every run if none does.
		if k < 2 {
			p.t.Fatalf("compaction merges %d run", k)
		}
		var sum int64
		for j := 0; j < k; j++ {
			if j >= 2 && sum <= sizes[j] {
				p.t.Fatalf("compaction merges %d runs of sizes %v; the newest %d already fit under the next", k, sizes, j)
			}
			sum += sizes[j]
		}
		if k < len(sizes) && sum > sizes[k] {
			p.t.Fatalf("compaction merges %d runs of sizes %v, %d bytes over the next older run", k, sizes, sum-sizes[k])
		}
	}
	if k < len(p.runs) {
		p.partial++
	}
	for _, id := range old {
		delete(p.tables, id)
	}
	p.next++
	p.runs = append([]uint64{p.next}, p.runs[k:]...)
	p.tables[p.next] = merged
	p.merged[merged] = true
	p.compactedBytes += merged.DataBytes()
	return p.next, nil
}

// TestSizeTieredCompaction drives the script through a store whose
// every flush and compaction the MANIFEST model above checks: each
// compaction merges the newest runs the size-tiered rule picks, and
// after every step the store holds at most CompactAt-1 runs, in the
// MANIFEST's order, and answers every read as the oracle does. The
// script's two pinned keys must be seen in their hard shapes: the
// tombstone in a merged run shadowing the live cell in an older run,
// and the future cell winning from the oldest run.
func TestSizeTieredCompaction(t *testing.T) {
	const steps = 1500
	p := newTierPersist(t, tierOptions(nil).CompactAt)
	s := New(tierOptions(p))
	sc := newTierScript(17, steps/2)
	var shadowed, futureOld bool
	for i := 0; i < steps; i++ {
		sc.step(t, s, i)
		if n := s.Stats().Segments; n > s.opts.CompactAt-1 {
			t.Fatalf("step %d: %d runs after the step, CompactAt is %d", i, n, s.opts.CompactAt)
		}
		if !slices.Equal(s.segIDs, p.runs) {
			t.Fatalf("step %d: store runs %v, MANIFEST %v", i, s.segIDs, p.runs)
		}
		sc.check(t, s, i)
		shadowed = shadowed || shadowedInOlderRun(s, p)
		if n := len(s.segs); n > 1 {
			c, ok := s.segs[n-1].Get(futureKey)
			futureOld = futureOld || ok && c.TS == 1<<40
		}
	}
	st := s.Stats()
	t.Logf("%d flushes, %d compactions (%d partial), %d runs at the end", st.Flushes, st.Compactions, p.partial, st.Segments)
	if st.Flushes < 40 || p.partial < 5 || p.partial == st.Compactions {
		t.Fatalf("script too small for partial and full compactions: %+v, %d partial", st, p.partial)
	}
	if !shadowed {
		t.Fatal("the tombstone never shadowed the live cell from a merged run while an older run held it")
	}
	if !futureOld {
		t.Fatal("the future cell never sat in the oldest of several runs")
	}

	// CollectGarbage stays a full compaction: one run, old tombstones gone.
	p.full = true
	if err := s.CollectGarbage(150); err != nil {
		t.Fatal(err)
	}
	if n := s.Stats().Segments; n != 1 || len(p.runs) != 1 {
		t.Fatalf("CollectGarbage left %d runs (MANIFEST %v), want 1", n, p.runs)
	}
	for k, c := range sc.oracle {
		if c.Tombstone && c.TS < 150 {
			delete(sc.oracle, k)
		}
	}
	sc.check(t, s, steps)
}

// shadowedInOlderRun reports whether the shadow key's tombstone sits in
// a run a compaction built while a run older than it still holds the
// live cell: a partial merge kept the tombstone it must keep.
func shadowedInOlderRun(s *Store, p *tierPersist) bool {
	for i, t := range s.segs {
		if c, ok := t.Get(shadowKey); !ok || !c.Tombstone || !p.merged[t] {
			continue
		}
		for _, older := range s.segs[i+1:] {
			if c, ok := older.Get(shadowKey); ok && !c.Tombstone {
				return true
			}
		}
	}
	return false
}

// TestCompactionBytes checks the write-amplification counters: a
// memory store and a persisted one count the same flushed and compacted
// bytes, which are the DataBytes of the runs their flushes and
// compactions built, and on the policy script the compactions write
// less per flushed byte than merging every run at CompactAt would have
// (computed here from the same flushed runs, which do not depend on the
// compaction rule).
func TestCompactionBytes(t *testing.T) {
	const steps = 1500
	p := newTierPersist(t, tierOptions(nil).CompactAt)
	durable, memory := New(tierOptions(p)), New(tierOptions(nil))
	a, b := newTierScript(17, steps/2), newTierScript(17, steps/2)
	for i := 0; i < steps; i++ {
		a.step(t, durable, i)
		b.step(t, memory, i)
	}
	st := durable.Stats()
	if st.FlushedBytes == 0 || st.CompactedBytes == 0 {
		t.Fatalf("bytes not counted: %+v", st)
	}
	if st.FlushedBytes != p.flushedBytes || st.CompactedBytes != p.compactedBytes {
		t.Fatalf("counted %d flushed and %d compacted bytes; the runs built hold %d and %d",
			st.FlushedBytes, st.CompactedBytes, p.flushedBytes, p.compactedBytes)
	}
	if ms := memory.Stats(); ms.FlushedBytes != st.FlushedBytes || ms.CompactedBytes != st.CompactedBytes {
		t.Fatalf("memory store counted %d/%d bytes, persisted store %d/%d",
			ms.FlushedBytes, ms.CompactedBytes, st.FlushedBytes, st.CompactedBytes)
	}

	var runs []*sstable.Table // newest first
	var fullBytes int64
	for _, f := range p.flushed {
		runs = append([]*sstable.Table{f}, runs...)
		if len(runs) < durable.opts.CompactAt {
			continue
		}
		entries := make([][]model.Entry, len(runs))
		for i, r := range runs {
			entries[i] = r.Entries()
		}
		merged := sstable.Build(sstable.MergeRuns(entries, false))
		fullBytes += merged.DataBytes()
		runs = []*sstable.Table{merged}
	}
	tiered := float64(st.CompactedBytes) / float64(st.FlushedBytes)
	full := float64(fullBytes) / float64(st.FlushedBytes)
	t.Logf("compacted bytes per flushed byte: %.2f size-tiered, %.2f merging every run", tiered, full)
	if tiered >= full {
		t.Fatalf("size-tiered compactions wrote %.2f bytes per flushed byte, merging every run %.2f", tiered, full)
	}
}

// TestDurableReopenAfterPartialCompactions runs the script on a
// WAL-backed store until partial compactions have happened, crashes
// it, and rebuilds it from the recovered MANIFEST and log tail: the
// MANIFEST lists the store's runs newest first (run ids are handed out
// in increasing order, so strictly decreasing), and the rebuilt store
// answers every read as the oracle does, then keeps compacting.
func TestDurableReopenAfterPartialCompactions(t *testing.T) {
	b := mem.New()
	walOpts := wal.Options{Policy: wal.SyncAlways, SegmentBytes: 4 << 10}
	st, err := wal.OpenStorage(b, walOpts)
	if err != nil {
		t.Fatal(err)
	}
	s := New(tierOptions(st.Table("t")))
	sc := newTierScript(29, 400)
	partial := false
	i := 0
	for ; i < 800; i++ {
		before := s.Stats().Compactions
		sc.step(t, s, i)
		if s.Stats().Compactions > before && len(s.segs) > 1 {
			partial = true
		}
	}
	if !partial {
		t.Fatalf("no partial compaction in the script: %+v", s.Stats())
	}
	for round := 0; round < 2; round++ {
		ids := slices.Clone(s.segIDs)
		if err := st.Abandon(); err != nil {
			t.Fatal(err)
		}
		b.Crash()
		if st, err = wal.OpenStorage(b, walOpts); err != nil {
			t.Fatal(err)
		}
		rec, err := st.Recover()
		if err != nil {
			t.Fatal(err)
		}
		rt := rec.Tables["t"]
		runs := make([]Run, len(rt.Runs))
		got := make([]uint64, len(rt.Runs))
		for j, r := range rt.Runs {
			runs[j] = Run{ID: r.ID, Table: r.Table}
			got[j] = r.ID
		}
		if !slices.Equal(got, ids) {
			t.Fatalf("round %d: MANIFEST lists runs %v, the store had %v", round, got, ids)
		}
		for j := 1; j < len(got); j++ {
			if got[j] >= got[j-1] {
				t.Fatalf("round %d: MANIFEST runs %v not newest first", round, got)
			}
		}
		s = NewFromRuns(tierOptions(st.Table("t")), runs)
		s.Recover(rt.Tail)
		sc.check(t, s, i)
		for end := i + 300; i < end; i++ {
			sc.step(t, s, i)
		}
		sc.check(t, s, i)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

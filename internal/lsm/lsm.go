// Package lsm assembles the memtable and sstable runs into the
// log-structured storage engine each node uses for every table it
// hosts (base tables, view tables and index fragments alike).
//
// Writes land in the memtable; when it exceeds the flush threshold it
// is frozen into an immutable sstable. When too many sstables
// accumulate, a size-tiered compaction merges them. Because cells
// carry their own total order (timestamps with deterministic
// tie-breaks), reads merge across all runs rather than stopping at the
// newest run that contains the key — a "newer" run can legally contain
// an older cell in this system, since timestamps are client-supplied.
package lsm

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"vstore/internal/memtable"
	"vstore/internal/model"
	"vstore/internal/sstable"
)

// Persist is the durability hook a store calls when one is
// configured (internal/wal implements it). AppendMutations runs under
// the store lock before the memtable applies of the cells it logs, and
// the store checks its flush threshold only once they are all applied,
// so a record can never be truncated by a flush it was not part of;
// FlushRun and ReplaceRuns must make the run durable and committed
// before returning so the store can treat the returned id as stable.
type Persist interface {
	// AppendMutations logs es — one row's cells, or a piece of a
	// replicated batch — ahead of applying them, as one record: after
	// a crash, replay restores all of es or none of it. After an error
	// es may still replay (a sync can fail after the write), but never
	// in part. es and its keys are only lent for the call.
	AppendMutations(es []model.Entry) error
	// FlushRun persists a frozen memtable as a new run and truncates
	// the log past it, returning the run's id.
	FlushRun(t *sstable.Table) (uint64, error)
	// ReplaceRuns persists a compaction: merged supersedes the runs
	// named by old. Returns the merged run's id.
	ReplaceRuns(old []uint64, merged *sstable.Table) (uint64, error)
}

// Options tune the engine. Zero values select sensible defaults.
type Options struct {
	// FlushBytes is the approximate memtable size that triggers a
	// flush. Default 4 MiB.
	FlushBytes int64
	// CompactAt is the sstable count that triggers a compaction: the
	// flush that brings the store to CompactAt runs merges the newest
	// runs of one size tier (see tierSize), leaving at most CompactAt-1.
	// Default 6.
	CompactAt int
	// Seed makes skiplist tower heights reproducible.
	Seed int64
	// Persist, when non-nil, makes the store durable: mutations are
	// WAL-logged before apply and flushes/compactions go through it.
	Persist Persist
}

func (o Options) withDefaults() Options {
	if o.FlushBytes == 0 {
		o.FlushBytes = 4 << 20
	}
	if o.CompactAt == 0 {
		o.CompactAt = 6
	}
	return o
}

// Store is one table's storage on one node.
type Store struct {
	opts Options

	// mu is the engine's only lock: the memtable has none of its own.
	// Writers hold it exclusively, readers share it.
	mu   sync.RWMutex
	mem  *memtable.Memtable
	segs []*sstable.Table // newest first
	// keyBuf and rowBuf are the write path's scratch, reused across
	// calls under mu: a row's storage keys, one after another, and, for
	// the log, its entries, whose keys alias keyBuf. Nothing below the
	// store keeps a key it is handed: the WAL encodes it into its
	// record, the memtable copies it.
	keyBuf []byte
	rowBuf []model.Entry
	// segIDs mirrors segs with the Persist-assigned run ids (all zero
	// in memory-only mode).
	segIDs []uint64

	flushes     int
	compactions int
	// flushedBytes and compactedBytes sum the DataBytes of the runs
	// flushes and compactions built.
	flushedBytes   int64
	compactedBytes int64

	// Read-path pruning counters (atomic; bumped outside mu).
	prunedPoint atomic.Int64
	prunedRow   atomic.Int64
}

// New returns an empty store.
func New(opts Options) *Store {
	opts = opts.withDefaults()
	return &Store{opts: opts, mem: memtable.New(opts.Seed)}
}

// Run is one durable sstable run plus its id, for rebuilding a store
// from a recovered MANIFEST.
type Run struct {
	ID    uint64
	Table *sstable.Table
}

// NewFromRuns rebuilds a store around recovered runs (newest first)
// with an empty memtable; the caller replays the WAL tail via Recover.
func NewFromRuns(opts Options, runs []Run) *Store {
	s := New(opts)
	for _, r := range runs {
		s.segs = append(s.segs, r.Table)
		s.segIDs = append(s.segIDs, r.ID)
	}
	return s
}

// Recover merges WAL-tail entries into the memtable without re-logging
// them (they are already durable in the log being replayed). No flush
// is triggered: recovery must not rewrite runs before the node is
// serving.
func (s *Store) Recover(entries []model.Entry) {
	s.mu.Lock()
	for _, e := range entries {
		//lint:ignore walorder replay path: entries come from the WAL tail being recovered, so they are already durable and re-logging would double them
		s.mem.Apply(e.Key, e.Cell)
	}
	s.mu.Unlock()
}

// Apply merges one cell into the store: ApplyRow with a single update.
func (s *Store) Apply(row, column string, c model.Cell) error {
	u := [1]model.ColumnUpdate{{Column: column, Cell: c}}
	return s.ApplyRow(row, u[:], nil)
}

// ApplyRow merges the updates into one row, in order, under one
// acquisition of the store lock: every write to the store takes this
// path. The row's storage keys are built one after another in a reused
// buffer; when the store is durable, the whole row is then
// write-ahead-logged as one record, and each cell is applied through
// one handle on the memtable row. The flush threshold is checked once,
// after the last cell: a flush inside the row would truncate the log
// segment holding the record of cells not yet applied, and replay
// would lose them. So the memtable flushes only at row boundaries, and
// a row is in one run or in the log, never split between them.
//
// old, when non-nil, must be as long as updates; old[i] receives the
// cell the store held for updates[i].Column just before that update
// was applied, LWW-merged across the memtable and every run, or
// model.NullCell if it held none — a column the row names twice gets
// its first update as the second's pre-image. A caller that needs
// pre-images — a pre-read, index maintenance — gets them from the
// lookup the write makes anyway. With old nil the write is blind and
// no run is consulted. The price of the single lookup: the runs' bloom
// probes and index searches for a pre-image happen under the exclusive
// lock, where a separate read before the write would have shared it,
// so readers of this table wait for them. A store whose memtable has
// never flushed has no runs to search.
//
// An error from the log applies nothing, and the write must not be
// acknowledged. An error from the flush after the row leaves the row
// logged and applied; the write must not be acknowledged either, and
// LWW merging makes retrying it whole safe.
func (s *Store) ApplyRow(row string, updates []model.ColumnUpdate, old []model.Cell) error {
	if len(updates) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	prefix := s.rowKeys(row, updates)
	if s.opts.Persist != nil {
		if err := s.opts.Persist.AppendMutations(s.rowEntries(prefix, updates)); err != nil {
			return err
		}
	}
	mr := s.mem.Row(s.keyBuf[:prefix])
	end := prefix
	for i := range updates {
		start := end
		end += prefix + len(updates[i].Column)
		key := s.keyBuf[start:end:end]
		prev, found := mr.Apply(key, updates[i].Cell)
		if old != nil {
			old[i], _ = s.mergeRuns(key, prev, found)
		}
	}
	if s.mem.ApproxBytes() >= s.opts.FlushBytes {
		return s.flushLocked()
	}
	return nil
}

// rowKeys lays out in s.keyBuf the row prefix, then the storage key of
// each update, one after another, and returns the prefix's length.
// Caller holds mu.
func (s *Store) rowKeys(row string, updates []model.ColumnUpdate) int {
	s.keyBuf = model.AppendKey(s.keyBuf[:0], row, "")
	prefix := len(s.keyBuf)
	n := len(updates) * prefix
	for i := range updates {
		n += len(updates[i].Column)
	}
	s.keyBuf = slices.Grow(s.keyBuf, n)
	for i := range updates {
		s.keyBuf = append(append(s.keyBuf, s.keyBuf[:prefix]...), updates[i].Column...)
	}
	return prefix
}

// rowEntries returns the updates as entries in s.rowBuf, keyed by the
// storage keys rowKeys laid out. Caller holds mu.
func (s *Store) rowEntries(prefix int, updates []model.ColumnUpdate) []model.Entry {
	s.rowBuf = slices.Grow(s.rowBuf[:0], len(updates))[:len(updates)]
	end := prefix
	for i := range updates {
		start := end
		end += prefix + len(updates[i].Column)
		s.rowBuf[i] = model.Entry{Key: s.keyBuf[start:end:end], Cell: updates[i].Cell}
	}
	return s.rowBuf
}

// ApplyEntries merges a batch of raw entries (used by anti-entropy and
// hinted handoff replay). A durable store logs the batch in pieces of
// at most maxBatchBytes, each one record applied once logged. On error
// a prefix of the pieces may have been applied; the batch is safe to
// retry whole (LWW merge is idempotent). Like ApplyRow, it checks the
// flush threshold once, after the batch.
func (s *Store) ApplyEntries(entries []model.Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(entries) > 0 {
		n, size := 1, entryBytes(entries[0])
		for n < len(entries) && size+entryBytes(entries[n]) <= maxBatchBytes {
			size += entryBytes(entries[n])
			n++
		}
		piece := entries[:n]
		entries = entries[n:]
		if s.opts.Persist != nil {
			if err := s.opts.Persist.AppendMutations(piece); err != nil {
				return err
			}
		}
		for _, e := range piece {
			s.mem.Apply(e.Key, e.Cell)
		}
	}
	if s.mem.ApproxBytes() >= s.opts.FlushBytes {
		return s.flushLocked()
	}
	return nil
}

// maxBatchBytes bounds the record each piece of an ApplyEntries batch
// is logged in, in entryBytes: an anti-entropy diff or a hint backlog
// can be any size, and a WAL record cannot (internal/wal refuses one
// over 64 MiB). A single entry larger than this is a piece of its own.
const maxBatchBytes = 1 << 20

// entryBytes bounds the bytes e takes in a WAL record: its key and
// value plus their two length prefixes, the timestamp and a flag.
func entryBytes(e model.Entry) int {
	return len(e.Key) + len(e.Cell.Value) + 3*binary.MaxVarintLen64 + 1
}

// flushLocked freezes the memtable into a new sstable. Caller holds
// mu. In durable mode the run is persisted and the WAL truncated
// before the in-memory state switches; on error the memtable is kept
// so no logged write is dropped.
func (s *Store) flushLocked() error {
	snap := s.mem.Snapshot()
	if len(snap) == 0 {
		return nil
	}
	t := sstable.Build(snap)
	var id uint64
	if s.opts.Persist != nil {
		var err error
		if id, err = s.opts.Persist.FlushRun(t); err != nil {
			return err
		}
	}
	s.segs = append([]*sstable.Table{t}, s.segs...)
	s.segIDs = append([]uint64{id}, s.segIDs...)
	s.mem = memtable.New(s.opts.Seed + int64(s.flushes) + 1)
	s.flushes++
	s.flushedBytes += t.DataBytes()
	if len(s.segs) >= s.opts.CompactAt {
		return s.compactLocked(s.tierSize(), nil)
	}
	return nil
}

// tierSize returns how many of the newest runs a compaction merges:
// the smallest k >= 2 whose runs together hold no more data than the
// next older run, or every run when no k qualifies. The merged run is
// then no larger than the run behind it, so run sizes grow with age
// and a flushed cell is rewritten about once per size tier instead of
// once per compaction. Since k >= 2, a compaction at CompactAt runs
// leaves at most CompactAt-1.
func (s *Store) tierSize() int {
	var sum int64
	for k := 1; k < len(s.segs); k++ {
		sum += s.segs[k-1].DataBytes()
		if k >= 2 && sum <= s.segs[k].DataBytes() {
			return k
		}
	}
	return len(s.segs)
}

// compactLocked merges the newest k sstables into one, which takes
// their place. Tombstones are retained unless dropBefore is non-nil
// (see CollectGarbage, which merges every run): the memtable and older
// runs may still hold cells the tombstones must shadow, and replicas
// may be behind.
func (s *Store) compactLocked(k int, dropBefore *int64) error {
	runs := make([][]model.Entry, 0, k)
	for _, t := range s.segs[:k] {
		runs = append(runs, t.Entries())
	}
	merged := sstable.MergeRuns(runs, false)
	if dropBefore != nil {
		kept := merged[:0]
		for _, e := range merged {
			if e.Cell.Tombstone && e.Cell.TS < *dropBefore {
				continue
			}
			kept = append(kept, e)
		}
		merged = kept
	}
	t := sstable.Build(merged)
	var id uint64
	if s.opts.Persist != nil {
		var err error
		if id, err = s.opts.Persist.ReplaceRuns(slices.Clone(s.segIDs[:k]), t); err != nil {
			return err
		}
	}
	s.segs = slices.Replace(s.segs, 0, k, t)
	s.segIDs = slices.Replace(s.segIDs, 0, k, id)
	s.compactions++
	s.compactedBytes += t.DataBytes()
	return nil
}

// Flush forces the memtable into an sstable (useful in tests and
// before snapshotting).
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

// CollectGarbage performs a full compaction that also drops tombstones
// older than beforeTS. Dropping a tombstone is only safe once every
// replica has seen it (cf. Cassandra's gc_grace_seconds); the caller
// decides the horizon.
func (s *Store) CollectGarbage(beforeTS int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushLocked(); err != nil {
		return err
	}
	if len(s.segs) == 0 {
		return nil
	}
	return s.compactLocked(len(s.segs), &beforeTS)
}

// RunCount returns the number of on-disk runs a read currently has to
// consult (the memtable is extra). Cheap; sampled into trace spans.
func (s *Store) RunCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.segs)
}

// keyScratch is the stack space a read builds its storage keys in;
// longer keys spill to the heap.
const keyScratch = 128

// Get returns the LWW-winning cell for (row, column) across all runs.
// The boolean reports whether any version (including a tombstone)
// exists.
func (s *Store) Get(row, column string) (model.Cell, bool) {
	var scratch [keyScratch]byte
	key := model.AppendKey(scratch[:0], row, column)
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.mem.Get(key)
	return s.mergeRuns(key, c, ok)
}

// mergeRuns folds the sstable runs' versions of one storage key into
// the memtable's (best, found). Caller holds mu (read or write). Runs
// whose bloom filter or key bounds exclude the key are skipped without
// touching their indexes, and so are runs whose newest cell is
// strictly older than the best cell found so far, which no cell of
// theirs can beat — but every other run that may contain the key IS
// consulted, because client-supplied timestamps mean any run can hold
// the winning cell, and at an equal timestamp the tie-break may pick
// the run's.
func (s *Store) mergeRuns(key []byte, best model.Cell, found bool) (model.Cell, bool) {
	for _, t := range s.segs {
		if found && best.TS > t.MaxTS() || !t.MayContainKey(key) {
			s.prunedPoint.Add(1)
			continue
		}
		if c, ok := t.Get(key); ok {
			best = model.Merge(best, c)
			found = true
		}
	}
	return best, found
}

// rowScratch recycles the merge buffers of whole-row reads. A read
// hands the merged entries on as it returns, so the buffers are free
// again before the next read takes them.
var rowScratch = sync.Pool{New: func() any { return new(rowBufs) }}

type rowBufs struct {
	runs   [][]model.Entry
	mem    []model.Entry
	merged []model.Entry
}

// GetRow returns every cell of the row, LWW-merged across runs, in
// column order; each entry's Key is the column name. Tombstoned cells
// are included (callers that implement Get semantics filter them;
// replication internals need them). The names alias the memtable's
// key arena and the immutable runs, neither of which is ever
// rewritten, so they stay valid after later writes, flushes and
// compactions; they must not be modified.
func (s *Store) GetRow(row string) []model.Entry {
	buf := rowScratch.Get().(*rowBufs)
	es, prefix := s.readRow(row, buf)
	out := make([]model.Entry, len(es))
	for i, e := range es {
		out[i] = model.Entry{Key: e.Key[prefix:len(e.Key):len(e.Key)], Cell: e.Cell}
	}
	rowScratch.Put(buf)
	return out
}

// DigestRow returns model.RowDigest of the row GetRow returns without
// building it: each cell's model.CellDigest is folded in where the
// merge left it.
func (s *Store) DigestRow(row string) uint64 {
	buf := rowScratch.Get().(*rowBufs)
	es, prefix := s.readRow(row, buf)
	digest := model.DigestSeed
	for _, e := range es {
		digest ^= model.CellDigest(e.Key[prefix:], e.Cell)
	}
	rowScratch.Put(buf)
	return digest
}

// readRow returns the row's cells LWW-merged across the memtable and
// every run, in key order, and the length of the row prefix their keys
// share. The entries live in buf (or alias a run) until buf is reused.
// Only run discovery needs the store lock: the memtable row's entries
// are copied out under it and sstable runs are immutable, so the merge
// happens after it is released.
func (s *Store) readRow(row string, buf *rowBufs) ([]model.Entry, int) {
	var scratch [keyScratch]byte
	prefix := model.AppendKey(scratch[:0], row, "")
	runs := buf.runs[:0]
	s.mu.RLock()
	mr := s.mem.Row(prefix)
	if buf.mem = mr.AppendTo(buf.mem[:0]); len(buf.mem) > 0 {
		runs = append(runs, buf.mem)
	}
	for _, t := range s.segs {
		if !t.MayContainRow(prefix) {
			s.prunedRow.Add(1)
			continue
		}
		if es := t.ScanPrefix(prefix); len(es) > 0 {
			runs = append(runs, es)
		}
	}
	s.mu.RUnlock()
	buf.runs = runs
	switch len(runs) {
	case 0:
		return nil, len(prefix)
	case 1: // sorted and duplicate-free already
		return runs[0], len(prefix)
	}
	buf.merged = sstable.AppendMergedRuns(buf.merged[:0], runs, false)
	return buf.merged, len(prefix)
}

// GetColumns returns the LWW-merged cells of the requested columns,
// aligned with columns: a never-written column's cell is
// model.NullCell.
func (s *Store) GetColumns(row string, columns []string) []model.Cell {
	out := make([]model.Cell, len(columns))
	s.readColumns(row, columns, func(i int, _ string, c model.Cell) { out[i] = c })
	return out
}

// DigestColumns returns model.DigestCells(columns, s.GetColumns(row,
// columns)) without building the cells: each cell's model.CellDigest
// is folded in as it is read. A column named twice counts once.
func (s *Store) DigestColumns(row string, columns []string) uint64 {
	digest := model.DigestSeed
	s.readColumns(row, columns, func(i int, col string, c model.Cell) {
		if !slices.Contains(columns[:i], col) {
			digest ^= model.CellDigest(col, c)
		}
	})
	return digest
}

// readColumns hands f the LWW-merged cell of each requested column, in
// order. The row is looked up in the memtable once and its keys are
// built in one stack buffer, under one acquisition of the store lock,
// which f runs under too.
func (s *Store) readColumns(row string, columns []string, f func(i int, col string, c model.Cell)) {
	var scratch [keyScratch]byte
	key := model.AppendKey(scratch[:0], row, "")
	prefix := len(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	mr := s.mem.Row(key)
	for i, col := range columns {
		key = append(key[:prefix], col...)
		c, ok := mr.Get(key)
		c, _ = s.mergeRuns(key, c, ok)
		f(i, col, c)
	}
}

// ScanRows returns up to limit distinct row names stored after
// afterRow, in storage-key order (length-prefixed encoding, so the
// order groups rows by name length first). The order is stable across
// calls and runs, which makes the last returned row a resumable
// cursor: backfill partition scans page through a table with repeated
// ScanRows calls, riding the memtable and sstable iterators instead of
// materializing a Snapshot per batch. An empty afterRow starts at the
// beginning.
func (s *Store) ScanRows(afterRow string, limit int) []string {
	if limit <= 0 {
		return nil
	}
	var after []byte
	if afterRow != "" {
		after = model.RowPrefix(afterRow)
	}
	s.mu.RLock()
	cands := s.mem.RowsFrom(after, limit)
	for _, t := range s.segs {
		cands = append(cands, t.RowsFrom(after, limit)...)
	}
	s.mu.RUnlock()
	if len(cands) == 0 {
		return nil
	}
	// The k smallest distinct rows overall are a subset of the union of
	// each run's k smallest, so merging the per-run pages is exact.
	sort.Slice(cands, func(i, j int) bool {
		return bytes.Compare(model.RowPrefix(cands[i]), model.RowPrefix(cands[j])) < 0
	})
	out := make([]string, 0, limit)
	for _, r := range cands {
		if len(out) > 0 && out[len(out)-1] == r {
			continue
		}
		out = append(out, r)
		if len(out) == limit {
			break
		}
	}
	return out
}

// Snapshot returns the full LWW-merged content of the store in key
// order. Used by anti-entropy and by index rebuilds.
func (s *Store) Snapshot() []model.Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	runs := make([][]model.Entry, 0, len(s.segs)+1)
	runs = append(runs, s.mem.Snapshot())
	for _, t := range s.segs {
		runs = append(runs, t.Entries())
	}
	return sstable.MergeRuns(runs, false)
}

// Stats reports engine internals for observability and tests.
type Stats struct {
	MemtableCells int
	Segments      int
	Flushes       int
	Compactions   int
	// FlushedBytes and CompactedBytes sum the payload (sstable
	// DataBytes) of the runs flushes and compactions built;
	// (FlushedBytes+CompactedBytes)/FlushedBytes is the engine's write
	// amplification.
	FlushedBytes   int64
	CompactedBytes int64
	// RunsPrunedPoint counts sstable runs a point lookup skipped: by
	// bloom filter or key bounds, or because the cell already found is
	// newer than every cell of the run. RunsPrunedRow counts those row
	// scans skipped by bloom filter or key bounds.
	RunsPrunedPoint int64
	RunsPrunedRow   int64
}

// Stats returns a snapshot of engine counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		MemtableCells:   s.mem.Len(),
		Segments:        len(s.segs),
		Flushes:         s.flushes,
		Compactions:     s.compactions,
		FlushedBytes:    s.flushedBytes,
		CompactedBytes:  s.compactedBytes,
		RunsPrunedPoint: s.prunedPoint.Load(),
		RunsPrunedRow:   s.prunedRow.Load(),
	}
}

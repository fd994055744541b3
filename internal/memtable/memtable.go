// Package memtable implements the mutable in-memory sorted run at the
// top of each node's storage engine. Writes apply last-writer-wins
// merging per cell, so the memtable always holds the winning version
// of every cell it has seen, exactly like a Cassandra memtable.
package memtable

import (
	"bytes"

	"vstore/internal/model"
	"vstore/internal/skiplist"
)

// Memtable is a sorted run of (storage key → cell). It has no lock of
// its own: lsm.Store, its only owner, already serializes writers and
// admits readers together, and a second lock under that one bought
// nothing.
type Memtable struct {
	list  *skiplist.List[model.Cell]
	bytes int64
}

// New returns an empty memtable.
func New(seed int64) *Memtable {
	return &Memtable{list: skiplist.New[model.Cell](seed)}
}

// cellOverhead approximates the fixed per-cell footprint beyond the
// key and value payload (timestamp + tombstone flag).
const cellOverhead = 9

// Apply merges the cell into the entry stored under key, in one
// descent, and returns the cell held before (ok false if there was
// none). If the cell loses the LWW comparison against the stored cell,
// the memtable is unchanged — Put is idempotent and order-insensitive.
func (m *Memtable) Apply(key []byte, cell model.Cell) (old model.Cell, ok bool) {
	v, inserted := m.list.Upsert(key)
	if inserted {
		*v = cell
		m.bytes += int64(len(key)+len(cell.Value)) + cellOverhead
		return model.NullCell, false
	}
	old = *v
	*v = model.Merge(old, cell)
	// Keep the byte estimate tracking the retained value: a merge that
	// replaces the value adjusts by the size delta, one that loses
	// leaves the accounting untouched.
	m.bytes += int64(len(v.Value) - len(old.Value))
	return old, true
}

// Get returns the cell stored under key.
func (m *Memtable) Get(key []byte) (model.Cell, bool) {
	if c, ok := m.list.Get(key); ok {
		return c, true
	}
	return model.NullCell, false
}

// Len returns the number of distinct cells held.
func (m *Memtable) Len() int { return m.list.Len() }

// ApproxBytes estimates the memory footprint, used to trigger flushes:
// key and value bytes plus a fixed overhead per cell.
func (m *Memtable) ApproxBytes() int64 { return m.bytes }

// AppendPrefix appends every entry whose key starts with prefix to
// dst, in key order, and returns the extended slice. The entries are
// materialized so the caller can merge them after letting go of the
// store lock, into a buffer it reuses across reads. Keys alias the
// memtable's storage, which is never rewritten, and must not be
// modified.
func (m *Memtable) AppendPrefix(dst []model.Entry, prefix []byte) []model.Entry {
	for it := m.list.Seek(prefix); it.Valid(); it.Next() {
		if !bytes.HasPrefix(it.Key(), prefix) {
			break
		}
		dst = append(dst, model.Entry{Key: it.Key(), Cell: it.Value()})
	}
	return dst
}

// RowsFrom returns up to maxRows distinct row names whose storage keys
// sort after the given row prefix, in storage-key order. It walks the
// skiplist iterator directly — no entry materialization — so partition
// scans can page through a large memtable without copying it. An empty
// prefix starts at the beginning; keys still under the prefix (columns
// of the cursor row itself) are skipped.
func (m *Memtable) RowsFrom(after []byte, maxRows int) []string {
	rc := model.NewRowCollector(after, maxRows)
	for it := m.list.Seek(after); it.Valid() && rc.Add(it.Key()); it.Next() {
	}
	return rc.Rows()
}

// Snapshot returns every entry in key order. Used when flushing the
// memtable into an sstable and by anti-entropy digests. Keys alias the
// memtable's storage, which is never rewritten — not even after the
// memtable itself is dropped — and must not be modified.
func (m *Memtable) Snapshot() []model.Entry {
	out := make([]model.Entry, 0, m.list.Len())
	for it := m.list.Iter(); it.Valid(); it.Next() {
		out = append(out, model.Entry{Key: it.Key(), Cell: it.Value()})
	}
	return out
}

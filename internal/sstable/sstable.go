// Package sstable implements the immutable sorted runs produced when a
// memtable flushes and when compaction merges older runs. Tables live
// in memory (this store is an embedded cluster used for experiments)
// and have an on-disk file format (file.go) for durable runs.
//
// A table holds entries sorted by storage key, with a sparse index
// every indexInterval entries to bound binary-search working sets the
// way block indexes do in on-disk formats.
package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"vstore/internal/bloom"
	"vstore/internal/model"
)

const (
	indexInterval = 16
	// filterBitsPerKey sizes the per-table bloom filter (~1% false
	// positives at 10 bits/key). Each entry contributes two filter
	// keys: its full storage key (for point Gets) and its row prefix
	// (for row scans), so the filter is sized for both.
	filterBitsPerKey = 10
)

// Table is an immutable sorted run.
type Table struct {
	entries []model.Entry
	// sparse index: keys of every indexInterval-th entry.
	index     [][]byte
	indexPos  []int
	dataBytes int64
	// filter holds every full storage key plus every distinct row
	// prefix, so both point Gets and row scans can rule the run out
	// without touching the index.
	filter *bloom.Filter
	minKey []byte
	maxKey []byte
	// maxTS is the largest timestamp of any cell in the run
	// (model.NullTS for an empty one), found while building: the file
	// format does not carry it.
	maxTS int64
}

// Build constructs a table from entries that must already be sorted by
// key with no duplicates (the memtable snapshot and compaction merge
// both guarantee this). Build panics on unsorted input: feeding an
// unsorted run into the read path would corrupt every lookup, so this
// is a programmer error, not a runtime condition.
func Build(entries []model.Entry) *Table {
	return build(entries, nil)
}

// buildWithFilter constructs a table around a filter restored from
// disk, skipping the per-key filter population that Build performs.
// The filter must be the one persisted alongside exactly these
// entries.
func buildWithFilter(entries []model.Entry, filter *bloom.Filter) *Table {
	return build(entries, filter)
}

func build(entries []model.Entry, filter *bloom.Filter) *Table {
	t := &Table{entries: entries, filter: filter, maxTS: model.NullTS}
	populate := filter == nil
	if populate {
		t.filter = bloom.New(2*len(entries), filterBitsPerKey)
	}
	var prev, prevRow []byte
	for i, e := range entries {
		if prev != nil && bytes.Compare(prev, e.Key) >= 0 {
			panic(fmt.Sprintf("sstable: entries unsorted at %d: %q >= %q", i, prev, e.Key))
		}
		prev = e.Key
		t.dataBytes += int64(len(e.Key) + len(e.Cell.Value))
		t.maxTS = max(t.maxTS, e.Cell.TS)
		if i%indexInterval == 0 {
			t.index = append(t.index, e.Key)
			t.indexPos = append(t.indexPos, i)
		}
		if !populate {
			continue
		}
		t.filter.Add(e.Key)
		// Entries of one row are adjacent in key order, so comparing
		// against the previous row prefix dedupes the row inserts.
		if rp := rowPrefixOf(e.Key); rp != nil && !bytes.Equal(rp, prevRow) {
			t.filter.Add(rp)
			prevRow = rp
		}
	}
	if len(entries) > 0 {
		t.minKey = entries[0].Key
		t.maxKey = entries[len(entries)-1].Key
	}
	return t
}

// rowPrefixOf returns the model.RowPrefix-shaped prefix of a storage
// key (the uvarint row length plus the row bytes), or nil if the key
// is not in storage-key form.
func rowPrefixOf(key []byte) []byte {
	rl, sz := binary.Uvarint(key)
	if sz <= 0 || uint64(len(key)-sz) < rl {
		return nil
	}
	return key[:sz+int(rl)]
}

// Len returns the number of entries.
func (t *Table) Len() int { return len(t.entries) }

// DataBytes returns the approximate payload size.
func (t *Table) DataBytes() int64 { return t.dataBytes }

// Entries exposes the table's sorted run without copying. The table is
// immutable; callers must treat the slice as read-only.
func (t *Table) Entries() []model.Entry { return t.entries }

// MinKey and MaxKey bound the table's key range (nil for an empty
// table). Read-only.
func (t *Table) MinKey() []byte { return t.minKey }

// MaxKey returns the largest key in the table.
func (t *Table) MaxKey() []byte { return t.maxKey }

// MaxTS returns the largest cell timestamp in the table: a cell with a
// greater timestamp beats every cell of the run.
func (t *Table) MaxTS() int64 { return t.maxTS }

// MayContainKey reports whether a point Get for key could possibly
// find an entry: false means the run definitely lacks the key, so the
// read path can skip it entirely.
func (t *Table) MayContainKey(key []byte) bool {
	if len(t.entries) == 0 ||
		bytes.Compare(key, t.minKey) < 0 ||
		bytes.Compare(key, t.maxKey) > 0 {
		return false
	}
	return t.filter.MayContain(key)
}

// MayContainRow reports whether any key of the run could start with
// the given model.RowPrefix-shaped prefix. False means a prefix scan
// over this run would come back empty. Only valid for prefixes
// produced by model.RowPrefix — arbitrary byte prefixes were never
// inserted into the filter.
func (t *Table) MayContainRow(rowPrefix []byte) bool {
	if len(t.entries) == 0 ||
		// All keys of the row sort in [rowPrefix, rowPrefix+0xff...),
		// so the run overlaps the row iff maxKey >= rowPrefix and
		// minKey has a chance of being below the row's end; comparing
		// minKey's leading bytes against the prefix covers the latter.
		bytes.Compare(t.maxKey, rowPrefix) < 0 ||
		bytes.Compare(truncate(t.minKey, len(rowPrefix)), rowPrefix) > 0 {
		return false
	}
	return t.filter.MayContain(rowPrefix)
}

func truncate(b []byte, n int) []byte {
	if len(b) > n {
		return b[:n]
	}
	return b
}

// seekIdx returns the index of the first entry with key >= key.
func (t *Table) seekIdx(key []byte) int {
	// Narrow with the sparse index first.
	blk := sort.Search(len(t.index), func(i int) bool {
		return bytes.Compare(t.index[i], key) > 0
	})
	lo := 0
	if blk > 0 {
		lo = t.indexPos[blk-1]
	}
	hi := len(t.entries)
	if blk < len(t.indexPos) {
		hi = t.indexPos[blk]
	}
	return lo + sort.Search(hi-lo, func(i int) bool {
		return bytes.Compare(t.entries[lo+i].Key, key) >= 0
	})
}

// Get returns the cell stored under key.
func (t *Table) Get(key []byte) (model.Cell, bool) {
	i := t.seekIdx(key)
	if i < len(t.entries) && bytes.Equal(t.entries[i].Key, key) {
		return t.entries[i].Cell, true
	}
	return model.NullCell, false
}

// ScanPrefix returns all entries whose key starts with prefix. The
// result aliases the table's immutable run (no copy); callers must
// treat it as read-only.
func (t *Table) ScanPrefix(prefix []byte) []model.Entry {
	i := t.seekIdx(prefix)
	j := i
	for ; j < len(t.entries) && bytes.HasPrefix(t.entries[j].Key, prefix); j++ {
	}
	return t.entries[i:j]
}

// RowsFrom returns up to maxRows distinct row names whose storage keys
// sort after the given row prefix, in storage-key order. Like
// ScanPrefix it seeks with the sparse index and walks the immutable
// run in place, so partition scans page through a table without
// copying entries. Keys still under the prefix (columns of the cursor
// row itself) are skipped.
func (t *Table) RowsFrom(after []byte, maxRows int) []string {
	rc := model.NewRowCollector(after, maxRows)
	for i := t.seekIdx(after); i < len(t.entries) && rc.Add(t.entries[i].Key); i++ {
	}
	return rc.Rows()
}

// Iter returns an iterator over the whole table.
func (t *Table) Iter() *Iterator { return &Iterator{t: t} }

// Iterator walks a table in key order.
type Iterator struct {
	t *Table
	i int
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator) Valid() bool { return it.i < len(it.t.entries) }

// Entry returns the current entry.
func (it *Iterator) Entry() model.Entry { return it.t.entries[it.i] }

// Next advances the iterator.
func (it *Iterator) Next() { it.i++ }

// MergeRuns performs a k-way LWW merge of sorted runs into a single
// sorted, duplicate-free run. When the same key appears in several
// runs, the LWW-winning cell survives — the order of the runs slice is
// irrelevant, unlike LSM engines with sequence numbers, because cell
// timestamps carry the total order. This is the heart of compaction.
//
// If dropTombstones is true, tombstone cells are omitted from the
// output; this is only safe when the merge covers every run of the
// store (a full compaction), otherwise a dropped tombstone could
// resurrect an older value living in a run outside the merge.
func MergeRuns(runs [][]model.Entry, dropTombstones bool) []model.Entry {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	return AppendMergedRuns(make([]model.Entry, 0, total), runs, dropTombstones)
}

// heapMergeThreshold is the run count above which MergeRuns switches
// from a linear min-scan to a binary heap; below it the scan's cache
// friendliness wins.
const heapMergeThreshold = 8

// AppendMergedRuns is MergeRuns appending into dst, letting callers
// that merge repeatedly (the LSM row-read path) reuse an output
// buffer.
func AppendMergedRuns(dst []model.Entry, runs [][]model.Entry, dropTombstones bool) []model.Entry {
	// The cursors of a linear-scan merge fit on the stack; only a merge
	// of more runs than that spills them to the heap.
	var stack [heapMergeThreshold]runCursor
	cur := stack[:0]
	for _, r := range runs {
		if len(r) > 0 {
			cur = append(cur, runCursor{run: r})
		}
	}
	if len(cur) > heapMergeThreshold {
		return heapMerge(dst, cur, dropTombstones)
	}
	for len(cur) > 0 {
		// Find the smallest current key across cursors. k is tiny
		// (a handful of runs), so a linear scan beats heap overhead.
		var minKey []byte
		for i := range cur {
			c := &cur[i]
			if minKey == nil || bytes.Compare(c.run[c.i].Key, minKey) < 0 {
				minKey = c.run[c.i].Key
			}
		}
		merged := model.NullCell
		live := cur[:0]
		for i := range cur {
			c := cur[i]
			if bytes.Equal(c.run[c.i].Key, minKey) {
				merged = model.Merge(merged, c.run[c.i].Cell)
				c.i++
			}
			if c.i < len(c.run) {
				live = append(live, c)
			}
		}
		cur = live
		if dropTombstones && merged.Tombstone {
			continue
		}
		dst = append(dst, model.Entry{Key: minKey, Cell: merged})
	}
	return dst
}

type runCursor struct {
	run []model.Entry
	i   int
}

func (c *runCursor) key() []byte { return c.run[c.i].Key }

// heapMerge is the many-run merge path: a hand-rolled binary min-heap
// over run cursors so each emitted key costs O(log k) comparisons
// instead of O(k). LWW semantics are identical to the linear path —
// every cursor positioned at the minimum key is consulted before the
// key is emitted, because client-supplied timestamps mean no run
// ordering shortcut is sound.
func heapMerge(dst []model.Entry, h []runCursor, dropTombstones bool) []model.Entry {
	less := func(a, b *runCursor) bool { return bytes.Compare(a.key(), b.key()) < 0 }
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(h) && less(&h[l], &h[small]) {
				small = l
			}
			if r < len(h) && less(&h[r], &h[small]) {
				small = r
			}
			if small == i {
				return
			}
			h[i], h[small] = h[small], h[i]
			i = small
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(h) > 0 {
		minKey := h[0].key()
		merged := model.NullCell
		// Drain every cursor whose current key equals minKey; after
		// advancing the root, re-heapify and look again.
		for len(h) > 0 && bytes.Equal(h[0].key(), minKey) {
			merged = model.Merge(merged, h[0].run[h[0].i].Cell)
			h[0].i++
			if h[0].i >= len(h[0].run) {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
			if len(h) > 0 {
				siftDown(0)
			}
		}
		if dropTombstones && merged.Tombstone {
			continue
		}
		dst = append(dst, model.Entry{Key: minKey, Cell: merged})
	}
	return dst
}

// --- Serialization --------------------------------------------------------

// appendEntries appends the entry-run codec of one on-disk block:
//
//	uvarint entryCount
//	per entry: uvarint keyLen, key, then the cell (model.AppendCell)
func appendEntries(buf []byte, entries []model.Entry) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = binary.AppendUvarint(buf, uint64(len(e.Key)))
		buf = append(buf, e.Key...)
		buf = model.AppendCell(buf, e.Cell)
	}
	return buf
}

// ErrCorrupt is returned for a malformed entry run or sstable file.
var ErrCorrupt = errors.New("sstable: corrupt serialization")

// UnmarshalEntries decodes an entry run written by appendEntries.
func UnmarshalEntries(data []byte) ([]model.Entry, error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, ErrCorrupt
	}
	data = data[sz:]
	// Every entry costs at least 4 bytes (keyLen, ts, flag, valLen), so
	// a count beyond len(data) is corrupt — reject it before the count
	// sizes an allocation.
	if n > uint64(len(data)) {
		return nil, ErrCorrupt
	}
	entries := make([]model.Entry, 0, n)
	for i := uint64(0); i < n; i++ {
		kl, sz := binary.Uvarint(data)
		if sz <= 0 || uint64(len(data)-sz) < kl {
			return nil, ErrCorrupt
		}
		key := append([]byte(nil), data[sz:sz+int(kl)]...)
		c, rest, err := model.ReadCell(data[sz+int(kl):])
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		data = rest
		entries = append(entries, model.Entry{Key: key, Cell: c})
	}
	if len(data) != 0 {
		return nil, ErrCorrupt
	}
	return entries, nil
}

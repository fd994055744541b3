// Package memtable implements the mutable in-memory sorted run at the
// top of each node's storage engine. Writes apply last-writer-wins
// merging per cell, so the memtable always holds the winning version
// of every cell it has seen, exactly like a Cassandra memtable.
//
// Like Cassandra's, the memtable is keyed by row: a skiplist orders
// the rows by their storage-key prefix (what a flush and a row scan
// walk), each row keeps its cells sorted by column in chunks of at
// most chunkCells, and a map from row prefix to row serves every point
// access — a write, a named read, a whole-row read — without a
// descent. The row prefix of a storage key is model.RowPrefix of its
// row; the encoding makes row prefixes prefix-free, so ordering rows
// by prefix and then cells by column is the storage-key order.
package memtable

import (
	"bytes"
	"encoding/binary"
	"slices"
	"unsafe"

	"vstore/internal/model"
	"vstore/internal/skiplist"
)

const (
	// chunkCells is the most cells one chunk of a row holds. A full
	// chunk splits in two, so an insert into a row of any width is a
	// search among its chunks, one inside a chunk and a shift of at
	// most chunkCells entries.
	chunkCells = 64
	// entrySlab is the most entries one allocation carves into
	// chunks. A young memtable's slabs double from one entry, so a
	// memtable of a few cells holds no more than it uses.
	entrySlab = 256
	// arenaChunk is the size of the blocks keys are copied into.
	arenaChunk = 16 << 10
)

// Memtable is a sorted run of (storage key → cell). It has no lock of
// its own: lsm.Store, its only owner, already serializes writers and
// admits readers together, and a second lock under that one bought
// nothing.
type Memtable struct {
	rows *skiplist.List[row]
	// index maps a row prefix to its row. Its keys are strings over the
	// arena, which is never rewritten, so a row costs no key copy.
	index map[string]*row
	cells int
	bytes int64
	// arena holds every key: each cell's full storage key, and the
	// row prefix, which is the head of the row's first key.
	arena []byte
	free  []model.Entry // chunk space not handed out yet
}

// row is one row's cells in column order, split into chunks of at most
// chunkCells. While the row fits in one chunk, chunks is one[:], so a
// narrow row costs no chunk list of its own, and while it holds one
// cell that chunk is first[:], so a one-cell row costs no chunk either.
type row struct {
	chunks [][]model.Entry
	one    [1][]model.Entry
	first  [1]model.Entry
}

// New returns an empty memtable. The seed makes the row skiplist's
// tower heights reproducible.
func New(seed int64) *Memtable {
	return &Memtable{rows: skiplist.New[row](seed), index: map[string]*row{}}
}

// cellOverhead approximates the fixed per-cell footprint beyond the
// key and value payload (timestamp + tombstone flag).
const cellOverhead = 9

// Row is a handle on one row of a memtable, for the storage keys that
// start with the row prefix it was made with: what the storage engine
// resolves once per row it writes or reads. The handle of a row the
// memtable does not hold yet is valid too: its first Apply inserts
// the row, unless a write through another handle did since. A handle
// stays valid for the memtable's life.
type Row struct {
	m    *Memtable
	r    *row
	plen int
}

// Row returns the handle of the row whose storage keys start with
// prefix, a row prefix as model.RowPrefix builds it. It looks the row
// up in the index: no descent, no allocation.
func (m *Memtable) Row(prefix []byte) Row {
	return Row{m: m, r: m.index[string(prefix)], plen: len(prefix)}
}

// prefixLen returns the length of key's row prefix, or of the whole
// key if it is not in storage-key form (such a key is a row of its
// own, with one empty column).
func prefixLen(key []byte) int {
	n, sz := binary.Uvarint(key)
	if sz <= 0 || uint64(len(key)-sz) < n {
		return len(key)
	}
	return sz + int(n)
}

// Apply merges the cell into the entry stored under key and returns
// the cell held before (ok false if there was none). If the cell loses
// the LWW comparison against the stored cell, the memtable is
// unchanged — Put is idempotent and order-insensitive.
func (m *Memtable) Apply(key []byte, cell model.Cell) (old model.Cell, ok bool) {
	h := m.Row(key[:prefixLen(key)])
	return h.Apply(key, cell)
}

// Get returns the cell stored under key.
func (m *Memtable) Get(key []byte) (model.Cell, bool) {
	h := m.Row(key[:prefixLen(key)])
	return h.Get(key)
}

// Apply is Memtable.Apply for a key of the handle's row.
func (h *Row) Apply(key []byte, cell model.Cell) (old model.Cell, ok bool) {
	m := h.m
	if h.r == nil {
		if h.r = m.index[string(key[:h.plen])]; h.r == nil {
			h.r = m.insertRow(key, h.plen, cell)
			return model.NullCell, false
		}
	}
	ci, i, found := h.r.find(key[h.plen:], h.plen)
	if !found {
		m.insertCell(h.r, ci, i, model.Entry{Key: m.copyKey(key), Cell: cell})
		return model.NullCell, false
	}
	e := &h.r.chunks[ci][i]
	old = e.Cell
	e.Cell = model.Merge(old, cell)
	// Keep the byte estimate tracking the retained value: a merge that
	// replaces the value adjusts by the size delta, one that loses
	// leaves the accounting untouched.
	m.bytes += int64(len(e.Cell.Value) - len(old.Value))
	return old, true
}

// Get is Memtable.Get for a key of the handle's row.
func (h *Row) Get(key []byte) (model.Cell, bool) {
	if h.r == nil {
		return model.NullCell, false
	}
	ci, i, found := h.r.find(key[h.plen:], h.plen)
	if !found {
		return model.NullCell, false
	}
	return h.r.chunks[ci][i].Cell, true
}

// AppendTo appends the row's entries to dst, in key order, and returns
// the extended slice. The entries are materialized so the caller can
// merge them after letting go of the store lock, into a buffer it
// reuses across reads. Keys alias the memtable's arena, which is never
// rewritten, and must not be modified.
func (h *Row) AppendTo(dst []model.Entry) []model.Entry {
	if h.r != nil {
		for _, c := range h.r.chunks {
			dst = append(dst, c...)
		}
	}
	return dst
}

// find returns where the cell of column col is in the row, or where it
// would go: its chunk, its position there, and whether it is there.
// Columns compare past the row prefix, which every key of the row
// shares.
func (r *row) find(col []byte, plen int) (ci, i int, found bool) {
	cs := r.chunks
	if len(cs) > 1 {
		// The last chunk whose first column is <= col, else the first.
		lo, hi := 1, len(cs)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if bytes.Compare(cs[mid][0].Key[plen:], col) <= 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		ci = lo - 1
	}
	c := cs[ci]
	lo, hi := 0, len(c)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch cmp := bytes.Compare(c[mid].Key[plen:], col); {
		case cmp < 0:
			lo = mid + 1
		case cmp > 0:
			hi = mid
		default:
			return ci, mid, true
		}
	}
	return ci, lo, false
}

// insertRow adds the row of key, holding the one cell. The row prefix
// is the head of the key's arena copy, and the index's key a string
// over it.
func (m *Memtable) insertRow(key []byte, plen int, cell model.Cell) *row {
	k := m.copyKey(key)
	prefix := k[:plen:plen]
	r, _ := m.rows.Upsert(prefix)
	r.first[0] = model.Entry{Key: k, Cell: cell}
	r.one[0] = r.first[:]
	r.chunks = r.one[:]
	m.index[unsafe.String(unsafe.SliceData(prefix), plen)] = r
	m.count(k, cell)
	return r
}

// insertCell puts e at position i of chunk ci: in place while the
// chunk has room, into a chunk twice its size while it is below
// chunkCells, into a new chunk when e goes past the row's last column
// (so cells written in column order leave full chunks behind), and
// otherwise into one half of the full chunk, split in two.
func (m *Memtable) insertCell(r *row, ci, i int, e model.Entry) {
	c := r.chunks[ci]
	switch {
	case len(c) < cap(c):
	case len(c) < chunkCells:
		c = append(m.chunk(2*len(c)), c...)
	case ci == len(r.chunks)-1 && i == len(c):
		r.chunks = append(r.chunks, append(m.chunk(chunkCells), e))
		m.count(e.Key, e.Cell)
		return
	default:
		right := append(m.chunk(chunkCells), c[chunkCells/2:]...)
		c = c[:chunkCells/2]
		r.chunks[ci] = c
		r.chunks = slices.Insert(r.chunks, ci+1, right)
		if i > len(c) {
			ci, c, i = ci+1, right, i-len(c)
		}
	}
	c = c[:len(c)+1]
	copy(c[i+1:], c[i:])
	c[i] = e
	r.chunks[ci] = c
	m.count(e.Key, e.Cell)
}

// count adds a new cell to the cell count and the byte estimate.
func (m *Memtable) count(key []byte, cell model.Cell) {
	m.cells++
	m.bytes += int64(len(key)+len(cell.Value)) + cellOverhead
}

// chunk carves an empty chunk of capacity n out of the current slab,
// starting a new slab when it is used up.
func (m *Memtable) chunk(n int) []model.Entry {
	if len(m.free) < n {
		m.free = make([]model.Entry, max(n, min(m.cells+1, entrySlab)))
	}
	c := m.free[:0:n]
	m.free = m.free[n:]
	return c
}

// copyKey copies key into the arena. The copy is never written again,
// which is what lets the index, scans and flushes hand it out without
// copying.
func (m *Memtable) copyKey(key []byte) []byte {
	if len(key) > cap(m.arena)-len(m.arena) {
		m.arena = make([]byte, 0, max(arenaChunk, len(key)))
	}
	off := len(m.arena)
	m.arena = append(m.arena, key...)
	return m.arena[off:len(m.arena):len(m.arena)]
}

// Len returns the number of distinct cells held.
func (m *Memtable) Len() int { return m.cells }

// ApproxBytes estimates the memory footprint, used to trigger flushes:
// key and value bytes plus a fixed overhead per cell.
func (m *Memtable) ApproxBytes() int64 { return m.bytes }

// RowsFrom returns up to maxRows distinct row names whose storage keys
// sort after the given row prefix, in storage-key order. It walks the
// row skiplist directly — no entry materialization — so partition
// scans can page through a large memtable without copying it. An empty
// prefix starts at the beginning; the cursor row itself is skipped.
func (m *Memtable) RowsFrom(after []byte, maxRows int) []string {
	rc := model.NewRowCollector(after, maxRows)
	for it := m.rows.Seek(after); it.Valid() && rc.Add(it.Key()); it.Next() {
	}
	return rc.Rows()
}

// Snapshot returns every entry in key order. Used when flushing the
// memtable into an sstable and by anti-entropy digests. Keys alias the
// memtable's arena, which is never rewritten — not even after the
// memtable itself is dropped — and must not be modified.
func (m *Memtable) Snapshot() []model.Entry {
	out := make([]model.Entry, 0, m.cells)
	for it := m.rows.Iter(); it.Valid(); it.Next() {
		for _, c := range it.Value().chunks {
			out = append(out, c...)
		}
	}
	return out
}

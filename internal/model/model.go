// Package model defines the core data model shared by every layer of
// the store: cells, timestamps, last-writer-wins (LWW) merge semantics,
// tombstones, and the order-preserving composite encodings used for
// (row, column) storage keys and for the qualified column names that
// materialized views use to pack several base rows into one view row.
//
// The model follows Section II of Jin, Liu and Salem, "Materialized
// Views for Eventually Consistent Record Stores": a table maps a key
// and a column name to a cell; each cell holds a value and a
// client-supplied timestamp; deletes write tombstones; and all updates
// to a cell are totally ordered by timestamp so that every replica
// converges to the same winner.
package model

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// NullTS is the timestamp associated with a cell that has never been
// written. The paper specifies that a NULL timestamp is smaller than
// all non-NULL timestamps.
const NullTS int64 = math.MinInt64

// Cell is the unit of storage: the value of one column of one record,
// together with its timestamp. A tombstone records a deletion; it
// keeps its timestamp so that the deletion wins over older writes and
// loses to newer ones.
type Cell struct {
	Value     []byte
	TS        int64
	Tombstone bool
}

// NullCell is the cell returned for reads of never-written cells.
var NullCell = Cell{TS: NullTS}

// IsNull reports whether the cell represents "no value": either it was
// never written or the latest write was a deletion.
func (c Cell) IsNull() bool {
	return c.TS == NullTS || c.Tombstone
}

// Exists reports whether the cell has ever been written (even if the
// latest write is a tombstone).
func (c Cell) Exists() bool { return c.TS != NullTS }

// String renders the cell for debugging output.
func (c Cell) String() string {
	switch {
	case c.TS == NullTS:
		return "<null>"
	case c.Tombstone:
		return fmt.Sprintf("<tombstone @%d>", c.TS)
	default:
		return fmt.Sprintf("%q @%d", c.Value, c.TS)
	}
}

// Equal reports whether two cells are identical in value, timestamp
// and tombstone flag.
func (c Cell) Equal(o Cell) bool {
	return c.TS == o.TS && c.Tombstone == o.Tombstone && bytes.Equal(c.Value, o.Value)
}

// Wins reports whether c supersedes old under last-writer-wins.
// Ordering is primarily by timestamp. Ties are broken
// deterministically so that all replicas pick the same winner
// regardless of arrival order: a tombstone beats a live value at the
// same timestamp, and between two live values the lexicographically
// larger value wins (the rule Cassandra uses).
func (c Cell) Wins(old Cell) bool {
	if c.TS != old.TS {
		return c.TS > old.TS
	}
	if c.Tombstone != old.Tombstone {
		return c.Tombstone
	}
	return bytes.Compare(c.Value, old.Value) > 0
}

// Merge returns the LWW winner of a and b. It is commutative,
// associative and idempotent, which makes replica state a
// join-semilattice and guarantees convergence under anti-entropy.
func Merge(a, b Cell) Cell {
	if b.Wins(a) {
		return b
	}
	return a
}

// ColumnUpdate names one column and the cell to write into it. A Put
// request carries one or more of these.
type ColumnUpdate struct {
	Column string
	Cell   Cell
}

// Update is a convenience constructor for a live-value column update.
func Update(column string, value []byte, ts int64) ColumnUpdate {
	return ColumnUpdate{Column: column, Cell: Cell{Value: value, TS: ts}}
}

// Deletion is a convenience constructor for a tombstone column update.
func Deletion(column string, ts int64) ColumnUpdate {
	return ColumnUpdate{Column: column, Cell: Cell{TS: ts, Tombstone: true}}
}

// Row is a materialized set of named cells, the result of reading a
// record.
type Row map[string]Cell

// Clone returns a deep-enough copy of the row (cells share value
// slices, which are treated as immutable throughout the store).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

// --- Composite storage-key encoding -------------------------------------
//
// The storage engine keeps one entry per (row key, column) pair. The
// two strings are packed into a single []byte key such that:
//
//   - the encoding is injective (no two pairs collide), and
//   - all columns of one row are contiguous under lexicographic order,
//     so a row read is a prefix scan.
//
// We length-prefix the row key with a uvarint. All columns of a given
// row share the exact prefix uvarint(len(row)) || row, and no other
// row can produce that prefix.

// EncodeKey packs a (row, column) pair into a storage key.
func EncodeKey(row, column string) []byte {
	buf := make([]byte, 0, len(row)+len(column)+binary.MaxVarintLen32)
	buf = binary.AppendUvarint(buf, uint64(len(row)))
	buf = append(buf, row...)
	buf = append(buf, column...)
	return buf
}

// AppendKey appends the storage key of (row, column) to dst and
// returns the extended slice, letting hot read paths reuse one key
// buffer across lookups.
func AppendKey(dst []byte, row, column string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	dst = append(dst, row...)
	dst = append(dst, column...)
	return dst
}

// RowPrefix returns the storage-key prefix shared by every column of
// the given row and by no other row.
func RowPrefix(row string) []byte {
	buf := make([]byte, 0, len(row)+binary.MaxVarintLen32)
	buf = binary.AppendUvarint(buf, uint64(len(row)))
	buf = append(buf, row...)
	return buf
}

// RowDigest summarizes a row's existing cells (column names, values,
// timestamps, tombstone flags) into one 64-bit value. Two rows with
// equal digests hold, with overwhelming probability, identical
// existing cells — which is exactly the check digest-based quorum
// reads need, because LWW-merging identical rows is a no-op. Cells
// that do not Exist (NullCell placeholders) are skipped so a replica
// that padded missing columns digests the same as one that omitted
// them. Per-column hashes (CellDigest) are folded with XOR, making the
// digest independent of map iteration order.
func RowDigest(r Row) uint64 {
	digest := DigestSeed
	for col, c := range r {
		digest ^= CellDigest(col, c)
	}
	return digest
}

// DigestCells is RowDigest of the row that pairs columns[i] with
// cells[i], built without the map: a column named twice counts once,
// as it does in the map. cells must be at least as long as columns.
func DigestCells(columns []string, cells []Cell) uint64 {
	digest := DigestSeed
	for i, col := range columns {
		if !slices.Contains(columns[:i], col) {
			digest ^= CellDigest(col, cells[i])
		}
	}
	return digest
}

// DigestSeed is the digest of a row without existing cells; RowDigest
// XORs every cell's CellDigest into it. A store that digests cells
// where they lie, without building the Row, folds them the same way.
const DigestSeed uint64 = 14695981039346656037

// CellDigest is one cell's share of RowDigest: 0 for a cell that does
// not Exist, else a hash of the column name and the whole cell. The
// name may be a string or the bytes of one, hashed alike; a store
// digesting cells where they lie passes the bytes it holds, with no
// conversion to allocate for.
func CellDigest[S string | []byte](col S, c Cell) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	if !c.Exists() {
		return 0
	}
	h := uint64(offset64)
	for i := 0; i < len(col); i++ {
		h ^= uint64(col[i])
		h *= prime64
	}
	h ^= 0xff // separator between name and payload
	h *= prime64
	for _, b := range c.Value {
		h ^= uint64(b)
		h *= prime64
	}
	for shift := 0; shift < 64; shift += 8 {
		h ^= uint64(uint8(uint64(c.TS) >> shift))
		h *= prime64
	}
	if c.Tombstone {
		h ^= 1
		h *= prime64
	}
	// splitmix64-style finalization before the XOR fold so
	// per-column hash structure cannot cancel out.
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// ErrBadKey is returned when decoding a malformed storage key.
var ErrBadKey = errors.New("model: malformed storage key")

// DecodeKey splits a storage key back into its (row, column) pair.
func DecodeKey(key []byte) (row, column string, err error) {
	row, n, err := DecodeRow(key)
	if err != nil {
		return "", "", err
	}
	return row, string(key[n:]), nil
}

// DecodeRow returns the row a storage key belongs to and the length of
// its row prefix: key[:prefixLen] equals RowPrefix(row), and the column
// name follows it. Scans use the prefix to step over a row's remaining
// cells without decoding each one.
func DecodeRow(key []byte) (row string, prefixLen int, err error) {
	n, sz := binary.Uvarint(key)
	if sz <= 0 || uint64(len(key)-sz) < n {
		return "", 0, ErrBadKey
	}
	prefixLen = sz + int(n)
	return string(key[sz:prefixLen]), prefixLen, nil
}

// The cell codec, the one byte layout of a cell in WAL records and
// sstable runs:
//
//	varint ts, flag byte, uvarint valLen, val
//
// Bit 0 of the flag marks a tombstone. Bit 1 (cellHasMeta) is never
// written any more: it marked dotted-version-vector metadata after the
// value, which cells in directories written before the store dropped
// that metadata still carry. ReadCell skips it (skipMeta).
const (
	cellTombstone byte = 1 << 0
	cellHasMeta   byte = 1 << 1
)

// ErrBadCell is returned when decoding a malformed cell encoding.
var ErrBadCell = errors.New("model: malformed cell encoding")

// AppendCell appends the encoding of c to buf.
func AppendCell(buf []byte, c Cell) []byte {
	buf = binary.AppendVarint(buf, c.TS)
	var flag byte
	if c.Tombstone {
		flag |= cellTombstone
	}
	buf = append(buf, flag)
	buf = binary.AppendUvarint(buf, uint64(len(c.Value)))
	return append(buf, c.Value...)
}

// ReadCell decodes one cell from the front of data and returns the
// bytes after it. The cell's value is copied out of data.
func ReadCell(data []byte) (Cell, []byte, error) {
	ts, sz := binary.Varint(data)
	if sz <= 0 || len(data) == sz {
		return Cell{}, nil, ErrBadCell
	}
	flag := data[sz]
	data = data[sz+1:]
	vl, sz := binary.Uvarint(data)
	if sz <= 0 || uint64(len(data)-sz) < vl {
		return Cell{}, nil, ErrBadCell
	}
	var val []byte
	if vl > 0 {
		val = append([]byte(nil), data[sz:sz+int(vl)]...)
	}
	c := Cell{Value: val, TS: ts, Tombstone: flag&cellTombstone != 0}
	data = data[sz+int(vl):]
	if flag&cellHasMeta != 0 {
		var ok bool
		if data, ok = skipMeta(data); !ok {
			return Cell{}, nil, ErrBadCell
		}
	}
	return c, data, nil
}

// skipMeta returns the bytes after the old metadata at the front of
// data: uvarint node, uvarint seq, uvarint pair count, then that many
// pairs of uvarint node and uvarint seq. It rejects what its writer
// never produced: a node above 32 bits, a zero seq with a nonzero node,
// a zero seq in a pair, and a pair count larger than the bytes left,
// which is checked before the loop runs.
func skipMeta(data []byte) ([]byte, bool) {
	node, data, ok := uvarint(data)
	if !ok || node > math.MaxUint32 {
		return nil, false
	}
	var seq, n uint64
	if seq, data, ok = uvarint(data); !ok || (seq == 0 && node != 0) {
		return nil, false
	}
	if n, data, ok = uvarint(data); !ok || n > uint64(len(data)) {
		return nil, false
	}
	for ; n > 0; n-- {
		if node, data, ok = uvarint(data); !ok || node > math.MaxUint32 {
			return nil, false
		}
		if seq, data, ok = uvarint(data); !ok || seq == 0 {
			return nil, false
		}
	}
	return data, true
}

// uvarint decodes one uvarint from the front of data and returns the
// bytes after it.
func uvarint(data []byte) (uint64, []byte, bool) {
	v, sz := binary.Uvarint(data)
	if sz <= 0 {
		return 0, nil, false
	}
	return v, data[sz:], true
}

// RowCollector gathers distinct row names from storage keys fed to it
// in key order — the loop shared by the memtable's and the sstables'
// RowsFrom. Cells of one row are adjacent and share their row prefix,
// so a row's name is decoded once, when the prefix changes, not once
// per cell.
type RowCollector struct {
	prefix []byte // row prefix to step over: the cursor row's, then the last row's
	rows   []string
	max    int
}

// NewRowCollector collects up to max rows, skipping keys under the
// after prefix (the cells of a paging cursor's own row; empty skips
// nothing).
func NewRowCollector(after []byte, max int) RowCollector {
	return RowCollector{prefix: after, max: max}
}

// Add offers the next key and reports whether the collector wants
// more. Malformed keys are skipped. key must stay unmodified until the
// collector is done, as keys of immutable runs do.
func (rc *RowCollector) Add(key []byte) bool {
	if len(rc.prefix) > 0 && bytes.HasPrefix(key, rc.prefix) {
		return true
	}
	if len(rc.rows) >= rc.max {
		return false
	}
	row, n, err := DecodeRow(key)
	if err != nil {
		return true
	}
	rc.prefix = key[:n]
	rc.rows = append(rc.rows, row)
	return true
}

// Rows returns the rows collected, in the order their keys arrived.
func (rc *RowCollector) Rows() []string { return rc.rows }

// --- Qualified column names ---------------------------------------------
//
// A versioned view keyed by view key may hold several base rows under
// one view row (several base rows can share a view key). Following the
// wide-row layout of the paper's Cassandra prototype, the cells of base
// row kB inside a view row use qualified column names that pack
// (kB, column). The same uvarint framing keeps the mapping injective.

// Qualify packs a (base key, column) pair into a single column name.
func Qualify(baseKey, column string) string {
	return string(EncodeKey(baseKey, column))
}

// QualifyAll replaces every column name in columns by Qualify(baseKey,
// name). The qualified names share one allocation.
func QualifyAll(baseKey string, columns []string) {
	var lenBuf [binary.MaxVarintLen64]byte
	frame := lenBuf[:binary.PutUvarint(lenBuf[:], uint64(len(baseKey)))]
	size := 0
	for _, c := range columns {
		size += len(frame) + len(baseKey) + len(c)
	}
	var b strings.Builder
	b.Grow(size)
	for _, c := range columns {
		b.Write(frame)
		b.WriteString(baseKey)
		b.WriteString(c)
	}
	all := b.String()
	for i, c := range columns {
		n := len(frame) + len(baseKey) + len(c)
		columns[i], all = all[:n], all[n:]
	}
}

// QualifyPrefix returns the column-name prefix of all cells belonging
// to base key baseKey within a view row.
func QualifyPrefix(baseKey string) string {
	return string(RowPrefix(baseKey))
}

// Unqualify splits a qualified column name back into (base key,
// column). ok is false if the name is not a valid qualified name.
func Unqualify(name string) (baseKey, column string, ok bool) {
	b, c, err := DecodeKey([]byte(name))
	if err != nil {
		return "", "", false
	}
	return b, c, true
}

// --- Version sets ---------------------------------------------------------

// VersionSet accumulates the distinct cell versions observed for one
// cell across replicas. Algorithm 1 of the paper relies on the
// coordinator collecting *all* distinct view-key versions it sees (not
// just the newest) so that update propagation has candidate guesses.
type VersionSet struct {
	cells []Cell
}

// Add inserts a cell version if an identical version is not already
// present. It returns true if the set changed.
func (vs *VersionSet) Add(c Cell) bool {
	for _, e := range vs.cells {
		if e.Equal(c) {
			return false
		}
	}
	vs.cells = append(vs.cells, c)
	return true
}

// AddAll inserts every cell of other.
func (vs *VersionSet) AddAll(cells []Cell) {
	for _, c := range cells {
		vs.Add(c)
	}
}

// Cells returns the distinct versions collected so far, newest first.
// The newest-first order is the natural retry order for propagation
// guesses: the newest version is the most likely to already be in the
// view or to be the final value.
func (vs *VersionSet) Cells() []Cell {
	out := make([]Cell, len(vs.cells))
	copy(out, vs.cells)
	// Insertion sort by Wins order, newest first; the set is tiny.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Wins(out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Len reports the number of distinct versions collected.
func (vs *VersionSet) Len() int { return len(vs.cells) }

// Latest returns the LWW winner among the collected versions, or
// NullCell if the set is empty.
func (vs *VersionSet) Latest() Cell {
	best := NullCell
	for _, c := range vs.cells {
		best = Merge(best, c)
	}
	return best
}

// Entry pairs a storage key (the composite (row, column) encoding)
// with its cell. Sorted runs of entries are the currency exchanged
// between the memtable, sstables and compaction.
type Entry struct {
	Key  []byte
	Cell Cell
}

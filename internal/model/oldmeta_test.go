package model

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"
)

// The metadata cells were once written with, after the value of a cell
// whose flag has bit 1 set: uvarint dot node, uvarint dot seq, uvarint
// context size, then that many (uvarint node, uvarint seq) pairs in
// ascending node order. ReadCell only skips it; appendOldMeta and
// readOldMeta are that writer and its decoder, kept here so the skipper
// can be checked against the rules the store once wrote and read by.

// appendOldMeta appends metadata for the dot (node, seq) and the
// context ctx the way the old writer did.
func appendOldMeta(buf []byte, node uint32, seq uint64, ctx map[uint32]uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(node))
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(len(ctx)))
	nodes := make([]uint32, 0, len(ctx))
	for n := range ctx {
		nodes = append(nodes, n)
	}
	slices.Sort(nodes)
	for _, n := range nodes {
		buf = binary.AppendUvarint(buf, uint64(n))
		buf = binary.AppendUvarint(buf, ctx[n])
	}
	return buf
}

// readOldMeta decodes metadata by the old reader's rules and returns
// the bytes after it; ok is false where that reader failed.
func readOldMeta(data []byte) (node uint32, seq uint64, ctx map[uint32]uint64, rest []byte, ok bool) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 || n > math.MaxUint32 {
		return 0, 0, nil, nil, false
	}
	data = data[sz:]
	seq, sz = binary.Uvarint(data)
	if sz <= 0 || (seq == 0 && n != 0) {
		return 0, 0, nil, nil, false
	}
	data = data[sz:]
	count, sz := binary.Uvarint(data)
	if sz <= 0 || count > uint64(len(data)) {
		return 0, 0, nil, nil, false
	}
	data = data[sz:]
	ctx = map[uint32]uint64{}
	for i := uint64(0); i < count; i++ {
		cn, sz := binary.Uvarint(data)
		if sz <= 0 || cn > math.MaxUint32 {
			return 0, 0, nil, nil, false
		}
		data = data[sz:]
		cs, sz := binary.Uvarint(data)
		if sz <= 0 || cs == 0 {
			return 0, 0, nil, nil, false
		}
		data = data[sz:]
		ctx[uint32(cn)] = cs
	}
	return uint32(n), seq, ctx, data, true
}

// oldCell encodes c with its metadata flag set and meta after the value.
func oldCell(c Cell, meta []byte) []byte {
	buf := binary.AppendVarint(nil, c.TS)
	flag := cellHasMeta
	if c.Tombstone {
		flag |= cellTombstone
	}
	buf = append(buf, flag)
	buf = binary.AppendUvarint(buf, uint64(len(c.Value)))
	buf = append(buf, c.Value...)
	return append(buf, meta...)
}

// decodeOld reads a cell that must decode and consume all of enc.
func decodeOld(t *testing.T, enc []byte) Cell {
	t.Helper()
	c, rest, err := ReadCell(enc)
	if err != nil || len(rest) != 0 {
		t.Fatalf("% x: %v (%d bytes left)", enc, err, len(rest))
	}
	return c
}

// TestMetaRoundTrip: metadata of every shape the old writer produced is
// skipped exactly, and the cell around it decodes to its plain self.
func TestMetaRoundTrip(t *testing.T) {
	want := Cell{Value: []byte("v"), TS: 42}
	for _, tc := range []struct {
		name string
		node uint32
		seq  uint64
		ctx  map[uint32]uint64
	}{
		{"zero", 0, 0, nil},
		{"dot only", 3, 9, nil},
		{"dot and ctx", 1, 2, map[uint32]uint64{0: 4, 1: 2, 7: 1}},
		{"big values", math.MaxUint32, math.MaxInt64, map[uint32]uint64{math.MaxUint32: 1 << 62}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			meta := appendOldMeta(nil, tc.node, tc.seq, tc.ctx)
			enc := append(oldCell(want, meta), "tail"...)
			got, rest, err := ReadCell(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) || string(rest) != "tail" {
				t.Fatalf("decoded %+v with %q left, want %+v with the tail", got, rest, want)
			}
		})
	}
}

// TestReadMetaCorrupt: metadata the old reader rejected, cut short or
// holding what its writer never produced, fails the cell as ErrBadCell;
// no count is trusted past the bytes that could hold it.
func TestReadMetaCorrupt(t *testing.T) {
	head := Cell{Value: []byte("v"), TS: 42}
	for _, tc := range []struct {
		name string
		meta []byte
	}{
		{"empty", nil},
		{"truncated node", []byte{0x80}},
		{"missing seq", []byte{0x01}},
		{"missing pair count", []byte{0x01, 0x07}},
		{"missing pair", []byte{0x01, 0x01, 0x02, 0x01, 0x01}},
		{"truncated pair", []byte{0x01, 0x07, 0x01, 0x01}},
		{"oversized pair count", []byte{0x01, 0x07, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x00, 0x03}},
		{"count past the bytes", []byte{0x01, 0x07, 0x03, 0x00, 0x03, 0x01, 0x07}},
		{"node above 32 bits", []byte{0x80, 0x80, 0x80, 0x80, 0x10, 0x07, 0x00}},
		{"zero seq, nonzero node", []byte{0x01, 0x00, 0x00}},
		{"zero seq in a pair", []byte{0x01, 0x07, 0x01, 0x01, 0x00}},
		{"pair node above 32 bits", []byte{0x01, 0x07, 0x01, 0x80, 0x80, 0x80, 0x80, 0x10, 0x07}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, _, _, ok := readOldMeta(tc.meta); ok {
				t.Fatalf("the old reader accepts % x", tc.meta)
			}
			if _, _, err := ReadCell(oldCell(head, tc.meta)); !errors.Is(err, ErrBadCell) {
				t.Fatalf("err %v, want ErrBadCell", err)
			}
		})
	}
}

// FuzzMetaRoundTrip: ReadCell accepts the metadata after a flagged cell
// exactly where the old reader did, consumes as much of it, and never
// panics; what it accepts, re-encoded by the old writer, is accepted
// and consumed whole.
func FuzzMetaRoundTrip(f *testing.F) {
	f.Add(appendOldMeta(nil, 0, 0, nil))
	f.Add(appendOldMeta(nil, 2, 5, map[uint32]uint64{1: 1, 2: 5}))
	f.Add([]byte{0xff, 0x01, 0x02})
	want := Cell{Value: []byte("v"), TS: 42}
	f.Fuzz(func(t *testing.T, meta []byte) {
		got, rest, err := ReadCell(oldCell(want, meta))
		node, seq, ctx, oldRest, ok := readOldMeta(meta)
		if ok != (err == nil) {
			t.Fatalf("% x: ReadCell err %v, old reader ok %v", meta, err, ok)
		}
		if !ok {
			return
		}
		if !got.Equal(want) || len(rest) != len(oldRest) {
			t.Fatalf("% x: decoded %+v leaving %d bytes, old reader left %d", meta, got, len(rest), len(oldRest))
		}
		if got = decodeOld(t, oldCell(want, appendOldMeta(nil, node, seq, ctx))); !got.Equal(want) {
			t.Fatalf("re-encoded metadata decoded to %+v", got)
		}
	})
}

// TestMergeCommutativeOnFullTie pins sim seed 9 of the backfill
// scenario: two client writes of the same value at the same timestamp,
// stamped with different dots, once left replicas that merged them in
// different orders holding different metadata, diverged for good. Read
// back from those bytes they are one cell: either merge order yields
// it, and the rows digest alike.
func TestMergeCommutativeOnFullTie(t *testing.T) {
	plain := Cell{Value: []byte("k2"), TS: 119}
	a := decodeOld(t, oldCell(plain, appendOldMeta(nil, 2, 13, map[uint32]uint64{2: 13})))
	b := decodeOld(t, oldCell(plain, appendOldMeta(nil, 2, 17, map[uint32]uint64{2: 17})))
	ab, ba := Merge(a, b), Merge(b, a)
	if !ab.Equal(ba) || !ab.Equal(plain) {
		t.Fatalf("merge order decided the cell: %+v vs %+v", ab, ba)
	}
	if RowDigest(Row{"c": ab}) != RowDigest(Row{"c": ba}) {
		t.Fatal("replicas holding the same cell digest differently")
	}
}

// oldAndPlainCells are cells read from the old encoding, with
// different dots and contexts, beside plain cells that tie them on
// timestamp, value or both.
func oldAndPlainCells(t *testing.T) []Cell {
	out := []Cell{
		decodeOld(t, oldDotted),
		decodeOld(t, oldDottedTombstone),
		decodeOld(t, oldCell(Cell{Value: []byte("w"), TS: 42}, appendOldMeta(nil, 0, 4, map[uint32]uint64{0: 4}))),
		decodeOld(t, oldCell(Cell{Value: []byte("v"), TS: 42}, appendOldMeta(nil, 0, 0, map[uint32]uint64{1: 1}))),
		decodeOld(t, oldCell(Cell{TS: 42, Tombstone: true}, appendOldMeta(nil, 2, 9, nil))),
	}
	return append(out, Cell{Value: []byte("v"), TS: 42}, Cell{Value: []byte("u"), TS: 42}, Cell{TS: 5, Tombstone: true})
}

// TestMergeCommutativeWithDots: cells read from the old encoding merge
// as plain last-writer-wins cells, in either order, against each other
// and against plain cells; no metadata breaks a tie any more.
func TestMergeCommutativeWithDots(t *testing.T) {
	cells := oldAndPlainCells(t)
	for _, a := range cells {
		for _, b := range cells {
			ab, ba := Merge(a, b), Merge(b, a)
			if !ab.Equal(ba) {
				t.Fatalf("Merge(%v, %v) = %v but Merge(%v, %v) = %v", a, b, ab, b, a, ba)
			}
			if !ab.Equal(a) && !ab.Equal(b) {
				t.Fatalf("Merge(%v, %v) = %v, neither input", a, b, ab)
			}
		}
	}
}

// TestMergeIdempotentWithDots: merging a cell read from the old
// encoding with itself, or with its plain twin, leaves that cell.
func TestMergeIdempotentWithDots(t *testing.T) {
	for _, c := range oldAndPlainCells(t) {
		twin := Cell{Value: c.Value, TS: c.TS, Tombstone: c.Tombstone}
		if m := Merge(c, c); !m.Equal(c) {
			t.Fatalf("self-merge changed %v to %v", c, m)
		}
		if m := Merge(c, twin); !m.Equal(c) {
			t.Fatalf("merge with its plain twin changed %v to %v", c, m)
		}
	}
}

package model

import (
	"bytes"
	"errors"
	"testing"
)

// oldDotted is a cell in the encoding the store wrote while cells
// carried dotted-version-vector metadata: value "v" at timestamp 42,
// flag 0b10, then dot 1:7 and the two-entry context {0:3, 1:7}.
var oldDotted = []byte{0x54, 0x02, 0x01, 'v', 0x01, 0x07, 0x02, 0x00, 0x03, 0x01, 0x07}

// oldDottedTombstone is a tombstone at timestamp 5 in that encoding:
// flag 0b11, no value, dot 2:9 and the context {0:1, 2:9}.
var oldDottedTombstone = []byte{0x0a, 0x03, 0x00, 0x02, 0x09, 0x02, 0x00, 0x01, 0x02, 0x09}

func TestCellCodecRoundTrip(t *testing.T) {
	cases := []Cell{
		{Value: []byte("plain"), TS: 1},
		{TS: -3, Tombstone: true},
		{Value: []byte("v"), TS: 42},
	}
	var buf []byte
	for _, c := range cases {
		buf = AppendCell(buf, c)
	}
	buf = append(buf, "tail"...)
	for i, want := range cases {
		got, rest, err := ReadCell(buf)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !got.Equal(want) {
			t.Fatalf("case %d drifted: %+v vs %+v", i, got, want)
		}
		buf = rest
	}
	if string(buf) != "tail" {
		t.Fatalf("ReadCell consumed past its cells: %q left", buf)
	}
}

// TestReadCellSkipsOldMeta: a cell written with metadata decodes to its
// value, timestamp and tombstone flag, and ReadCell consumes exactly
// that cell, so the cells after it in a record or block still decode.
func TestReadCellSkipsOldMeta(t *testing.T) {
	for _, tc := range []struct {
		enc  []byte
		want Cell
	}{
		{oldDotted, Cell{Value: []byte("v"), TS: 42}},
		{oldDottedTombstone, Cell{TS: 5, Tombstone: true}},
	} {
		got, rest, err := ReadCell(append(append([]byte(nil), tc.enc...), "tail"...))
		if err != nil {
			t.Fatalf("% x: %v", tc.enc, err)
		}
		if !got.Equal(tc.want) {
			t.Fatalf("% x decoded to %+v, want %+v", tc.enc, got, tc.want)
		}
		if string(rest) != "tail" {
			t.Fatalf("% x: %q left, want the tail", tc.enc, rest)
		}
	}
}

// TestReadCellCorruptMeta: a cell flagged as carrying metadata but
// truncated inside it must fail loudly, not decode garbage. Metadata
// its writer never produced is TestReadMetaCorrupt's.
func TestReadCellCorruptMeta(t *testing.T) {
	for cut := 0; cut < len(oldDotted); cut++ {
		if _, _, err := ReadCell(oldDotted[:cut]); !errors.Is(err, ErrBadCell) {
			t.Fatalf("truncation at %d of %d: err %v, want ErrBadCell", cut, len(oldDotted), err)
		}
	}
}

// TestReadCellLegacyFlags: a cell is written with flag byte 0 or 1,
// never with the metadata bit, and decodes unchanged.
func TestReadCellLegacyFlags(t *testing.T) {
	for _, c := range []Cell{
		{Value: []byte("v"), TS: 7},
		{TS: 8, Tombstone: true},
	} {
		enc := AppendCell(nil, c)
		var wantFlag byte
		if c.Tombstone {
			wantFlag = 1
		}
		if enc[1] != wantFlag { // a one-byte varint ts precedes the flag
			t.Fatalf("cell %+v encoded flag %#x, want %#x", c, enc[1], wantFlag)
		}
		got, rest, err := ReadCell(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("cell %+v: %v (%d bytes left)", c, err, len(rest))
		}
		if !got.Equal(c) {
			t.Fatalf("legacy cell drifted: %+v vs %+v", got, c)
		}
	}
}

// TestAppendCellDeterministic: the codec is a pure function of the
// cell, which byte-identical durable replays depend on. A cell read
// from the old encoding re-encodes as the plain cell it holds.
func TestAppendCellDeterministic(t *testing.T) {
	old, _, err := ReadCell(oldDotted)
	if err != nil {
		t.Fatal(err)
	}
	want := AppendCell(nil, Cell{Value: []byte("v"), TS: 42})
	for i := 0; i < 4; i++ {
		if got := AppendCell(nil, old); !bytes.Equal(got, want) {
			t.Fatalf("re-encoding % x, want % x", got, want)
		}
	}
}

// FuzzReadCell: the cell decoder must never panic and every decodable
// input must re-encode to an equal cell.
func FuzzReadCell(f *testing.F) {
	f.Add(oldDotted)
	f.Add(AppendCell(nil, Cell{Value: []byte("x"), TS: 3}))
	f.Add([]byte{0x01, 0x02, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, _, err := ReadCell(data)
		if err != nil {
			return
		}
		c2, rest, err := ReadCell(AppendCell(nil, c))
		if err != nil {
			t.Fatalf("re-decode of re-encoding failed: %v", err)
		}
		if !c.Equal(c2) || len(rest) != 0 {
			t.Fatalf("round-trip drift: %+v vs %+v", c, c2)
		}
	})
}

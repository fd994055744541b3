package model

import (
	"bytes"
	"errors"
	"testing"

	"vstore/internal/dvv"
)

func dottedCell() Cell {
	return Cell{
		Value: []byte("v"),
		TS:    42,
		Dot:   dvv.Dot{Node: 1, Seq: 7},
		Ctx:   dvv.VV{0: 3, 1: 7},
	}
}

func cellsEqual(a, b Cell) bool {
	return a.Equal(b) && a.Dot == b.Dot && a.Ctx.Equal(b.Ctx)
}

func TestCellCodecRoundTrip(t *testing.T) {
	cases := []Cell{
		{Value: []byte("plain"), TS: 1},
		{TS: -3, Tombstone: true},
		dottedCell(),
		{TS: 3, Tombstone: true, Dot: dvv.Dot{Node: 0, Seq: 1}, Ctx: dvv.VV{0: 1}},
		{Value: []byte("ctx-only"), TS: 4, Ctx: dvv.VV{2: 5}},
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
		if !cellsEqual(got, want) {
			t.Fatalf("case %d drifted: %+v vs %+v", i, got, want)
		}
		buf = rest
	}
	if string(buf) != "tail" {
		t.Fatalf("ReadCell consumed past its cells: %q left", buf)
	}
}

// TestReadCellCorruptMeta: a cell flagged as carrying metadata but
// truncated before it must fail loudly, not decode garbage.
func TestReadCellCorruptMeta(t *testing.T) {
	enc := AppendCell(nil, dottedCell())
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := ReadCell(enc[:cut]); !errors.Is(err, ErrBadCell) {
			t.Fatalf("truncation at %d of %d: err %v, want ErrBadCell", cut, len(enc), err)
		}
	}
}

// TestReadCellLegacyFlags: cells written before dot metadata existed
// carry flag bytes 0/1 and must decode unchanged; a cell without
// metadata must still encode that way.
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
		if !got.Equal(c) || !got.Dot.IsZero() || got.Ctx != nil {
			t.Fatalf("legacy cell drifted: %+v vs %+v", got, c)
		}
	}
}

// TestAppendCellDeterministic: the codec must be a pure function of the
// cell value — byte-identical durable replays depend on the metadata
// encoding not leaking map iteration order.
func TestAppendCellDeterministic(t *testing.T) {
	c := Cell{Value: []byte("v"), TS: 1, Dot: dvv.Dot{Node: 1, Seq: 2},
		Ctx: dvv.VV{4: 1, 2: 2, 0: 3, 3: 4, 1: 5}}
	first := AppendCell(nil, c)
	for i := 0; i < 32; i++ {
		cc := c
		cc.Ctx = c.Ctx.Clone()
		if got := AppendCell(nil, cc); !bytes.Equal(got, first) {
			t.Fatal("cell encoding depends on map iteration order")
		}
	}
}

// FuzzReadCell: the cell decoder must never panic and every decodable
// input must re-encode to an equivalent cell.
func FuzzReadCell(f *testing.F) {
	f.Add(AppendCell(nil, dottedCell()))
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
		if !cellsEqual(c, c2) || len(rest) != 0 {
			t.Fatalf("round-trip drift: %+v vs %+v", c, c2)
		}
	})
}

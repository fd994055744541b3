package wal

import (
	"errors"
	"testing"

	"vstore/internal/model"
)

// encodeMutation writes the one-cell recMutation record stores logged
// before they logged rows: replay still reads it.
func encodeMutation(key []byte, c model.Cell) []byte {
	buf := []byte{recMutation}
	buf = appendBytes(buf, key)
	return model.AppendCell(buf, c)
}

// oldMutation is a mutation record of key "k" whose cell carries the
// metadata cells were once written with: value "v" at timestamp 42,
// then dot 1:7 and the context {0:3, 1:7} (the cell model's codec test
// decodes).
func oldMutation() []byte {
	rec := encodeMutation([]byte("k"), model.Cell{})
	rec = rec[:len(rec)-len(model.AppendCell(nil, model.Cell{}))]
	return append(rec, 0x54, 0x02, 0x01, 'v', 0x01, 0x07, 0x02, 0x00, 0x03, 0x01, 0x07)
}

func TestMutationRecordRoundTrip(t *testing.T) {
	cases := []model.Cell{
		{Value: []byte("plain"), TS: 1}, // flag 0
		{TS: 2, Tombstone: true},        // flag 1
	}
	for i, c := range cases {
		rec := encodeMutation([]byte("k"), c)
		_, payload, err := recordType(rec)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		e, err := decodeMutation(payload)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !e.Cell.Equal(c) {
			t.Fatalf("case %d drifted: %+v vs %+v", i, e.Cell, c)
		}
	}
}

// TestMutationRecordDotRoundTrip: a record whose cell carries the old
// metadata replays as the plain cell.
func TestMutationRecordDotRoundTrip(t *testing.T) {
	_, payload, err := recordType(oldMutation())
	if err != nil {
		t.Fatal(err)
	}
	e, err := decodeMutation(payload)
	if err != nil {
		t.Fatal(err)
	}
	if want := (model.Cell{Value: []byte("v"), TS: 42}); string(e.Key) != "k" || !e.Cell.Equal(want) {
		t.Fatalf("old record replayed as %q %+v, want \"k\" %+v", e.Key, e.Cell, want)
	}
}

// TestReadCellCorruptMeta: a record truncated inside its cell's old
// metadata fails loudly as ErrBadRecord, not decode garbage.
func TestReadCellCorruptMeta(t *testing.T) {
	_, payload, err := recordType(oldMutation())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeMutation(payload[:len(payload)-3]); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("truncated metadata: err %v, want ErrBadRecord", err)
	}
}

// TestIntentRecordRoundTrip: a crash-replayed propagation intent hands
// back exactly the cells the client wrote.
func TestIntentRecordRoundTrip(t *testing.T) {
	in := Intent{
		ID:    9,
		Table: "base",
		Row:   "r1",
		Updates: []model.ColumnUpdate{
			{Column: "vk", Cell: model.Cell{Value: []byte("v"), TS: 42}},
			{Column: "val", Cell: model.Cell{TS: 5, Tombstone: true}},
		},
	}
	rec := appendIntentStart(nil, in)
	_, payload, err := recordType(rec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeIntentStart(payload)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Table != in.Table || out.Row != in.Row || len(out.Updates) != len(in.Updates) {
		t.Fatalf("intent frame drifted: %+v", out)
	}
	for i := range in.Updates {
		if out.Updates[i].Column != in.Updates[i].Column || !out.Updates[i].Cell.Equal(in.Updates[i].Cell) {
			t.Fatalf("update %d drifted: %+v vs %+v", i, out.Updates[i], in.Updates[i])
		}
	}
}

// TestIntentRecordDotRoundTrip: an intent logged while cells carried
// metadata, a dotted value and a dotted tombstone, replays after a
// crash as the plain cells the client wrote.
func TestIntentRecordDotRoundTrip(t *testing.T) {
	rec := appendIntentStart(nil, Intent{ID: 9, Table: "base", Row: "r1"})
	rec = append(rec[:len(rec)-1], 2) // two updates follow
	rec = appendBytes(rec, []byte("vk"))
	rec = append(rec, 0x54, 0x02, 0x01, 'v', 0x01, 0x07, 0x02, 0x00, 0x03, 0x01, 0x07)
	rec = appendBytes(rec, []byte("val"))
	rec = append(rec, 0x0a, 0x03, 0x00, 0x02, 0x09, 0x02, 0x00, 0x01, 0x02, 0x09)
	_, payload, err := recordType(rec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeIntentStart(payload)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != 9 || out.Table != "base" || out.Row != "r1" || len(out.Updates) != 2 {
		t.Fatalf("intent frame drifted: %+v", out)
	}
	want := []model.ColumnUpdate{
		{Column: "vk", Cell: model.Cell{Value: []byte("v"), TS: 42}},
		{Column: "val", Cell: model.Cell{TS: 5, Tombstone: true}},
	}
	for i, w := range want {
		if out.Updates[i].Column != w.Column || !out.Updates[i].Cell.Equal(w.Cell) {
			t.Fatalf("update %d replayed as %+v, want %+v", i, out.Updates[i], w)
		}
	}
}

package wal

import (
	"errors"
	"testing"

	"vstore/internal/dvv"
	"vstore/internal/model"
)

func dottedCell() model.Cell {
	return model.Cell{
		Value: []byte("v"),
		TS:    42,
		Dot:   dvv.Dot{Node: 1, Seq: 7},
		Ctx:   dvv.VV{0: 3, 1: 7},
	}
}

func cellsEqual(a, b model.Cell) bool {
	return a.Equal(b) && a.Dot == b.Dot && a.Ctx.Equal(b.Ctx)
}

func TestMutationRecordDotRoundTrip(t *testing.T) {
	cases := []model.Cell{
		{Value: []byte("plain"), TS: 1}, // legacy flag 0
		{TS: 2, Tombstone: true},        // legacy flag 1
		dottedCell(),
		{TS: 3, Tombstone: true, Dot: dvv.Dot{Node: 0, Seq: 1}, Ctx: dvv.VV{0: 1}},
		{Value: []byte("ctx-only"), TS: 4, Ctx: dvv.VV{2: 5}},
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
		if !cellsEqual(e.Cell, c) {
			t.Fatalf("case %d drifted: %+v vs %+v", i, e.Cell, c)
		}
	}
}

// TestIntentRecordDotRoundTrip: a crash-replayed propagation intent
// must hand back exactly the dotted cells the client wrote — dot
// continuity across restarts is what keeps the causal oracle honest
// under CrashRestart schedules.
func TestIntentRecordDotRoundTrip(t *testing.T) {
	in := Intent{
		ID:    9,
		Table: "base",
		Row:   "r1",
		Updates: []model.ColumnUpdate{
			{Column: "vk", Cell: dottedCell()},
			{Column: "val", Cell: model.Cell{Value: []byte("m"), TS: 5}},
		},
	}
	rec := encodeIntentStart(in)
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
		if out.Updates[i].Column != in.Updates[i].Column || !cellsEqual(out.Updates[i].Cell, in.Updates[i].Cell) {
			t.Fatalf("update %d drifted: %+v vs %+v", i, out.Updates[i], in.Updates[i])
		}
	}
}

func TestReadCellCorruptMeta(t *testing.T) {
	// A record flagged as carrying metadata but truncated before it must
	// fail loudly as ErrBadRecord, not decode garbage.
	rec := encodeMutation([]byte("k"), dottedCell())
	_, payload, err := recordType(rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeMutation(payload[:len(payload)-3]); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("truncated dot metadata: err %v, want ErrBadRecord", err)
	}
}

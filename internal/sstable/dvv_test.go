package sstable

import (
	"bytes"
	"testing"

	"vstore/internal/dvv"
	"vstore/internal/model"
)

func dottedEntries() []model.Entry {
	return []model.Entry{
		{Key: []byte("a"), Cell: model.Cell{Value: []byte("v1"), TS: 1}}, // undotted
		{Key: []byte("b"), Cell: model.Cell{
			Value: []byte("v2"), TS: 2,
			Dot: dvv.Dot{Node: 0, Seq: 4}, Ctx: dvv.VV{0: 4},
		}},
		{Key: []byte("c"), Cell: model.Cell{
			TS: 3, Tombstone: true,
			Dot: dvv.Dot{Node: 2, Seq: 9}, Ctx: dvv.VV{0: 4, 2: 9},
		}},
		{Key: []byte("d"), Cell: model.Cell{
			Value: []byte("v4"), TS: 4,
			Ctx: dvv.VV{1: 1}, // ctx without a dot (merged survivor)
		}},
	}
}

func TestEntriesRoundTripDots(t *testing.T) {
	in := dottedEntries()
	out, err := UnmarshalEntries(appendEntries(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("%d entries, want %d", len(out), len(in))
	}
	for i := range in {
		a, b := in[i].Cell, out[i].Cell
		if !a.Equal(b) || a.Dot != b.Dot || !a.Ctx.Equal(b.Ctx) {
			t.Fatalf("entry %q drifted: %+v vs %+v", in[i].Key, a, b)
		}
	}
}

// TestEntriesDeterministicWithDots: identical state must serialize
// byte-identically (context maps are sorted by the codec) — byte-level
// durable replay equality depends on it.
func TestEntriesDeterministicWithDots(t *testing.T) {
	first := appendEntries(nil, dottedEntries())
	for i := 0; i < 16; i++ {
		// Fresh maps each round: map iteration order must not leak in.
		if got := appendEntries(nil, dottedEntries()); !bytes.Equal(got, first) {
			t.Fatal("serialization depends on map iteration order")
		}
	}
}

// FuzzUnmarshalEntries: any byte string that decodes must re-encode to
// an equivalent run, and the decoder must never panic on garbage.
func FuzzUnmarshalEntries(f *testing.F) {
	f.Add(appendEntries(nil, dottedEntries()))
	f.Add(appendEntries(nil, mkEntries(3)))
	f.Add([]byte{0x05, 0x00, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := UnmarshalEntries(data)
		if err != nil {
			return
		}
		reenc := appendEntries(nil, entries)
		out, err := UnmarshalEntries(reenc)
		if err != nil {
			t.Fatalf("re-decode of re-encoding failed: %v", err)
		}
		if len(out) != len(entries) {
			t.Fatalf("entry count drifted: %d vs %d", len(out), len(entries))
		}
		for i := range entries {
			a, b := entries[i], out[i]
			if !bytes.Equal(a.Key, b.Key) || !a.Cell.Equal(b.Cell) ||
				a.Cell.Dot != b.Cell.Dot || !a.Cell.Ctx.Equal(b.Cell.Ctx) {
				t.Fatalf("entry %d drifted: %+v vs %+v", i, a, b)
			}
		}
	})
}

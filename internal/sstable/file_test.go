package sstable

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"vstore/internal/model"
	physfs "vstore/internal/physical/fs"
)

// TestFileRoundtrip: EncodeFile/DecodeFile must preserve entries,
// bounds, and a bloom filter that still prunes (the persisted filter
// is reused, not rebuilt).
func TestFileRoundtrip(t *testing.T) {
	entries := mkRowEntries(40, 3) // spans multiple rows, one data block
	orig := Build(entries)
	got, err := DecodeFile(orig.EncodeFile())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Entries(), entries) {
		t.Fatalf("entries changed across the file format")
	}
	if !bytes.Equal(got.MinKey(), orig.MinKey()) || !bytes.Equal(got.MaxKey(), orig.MaxKey()) {
		t.Fatalf("bounds changed: [%q,%q] vs [%q,%q]", got.MinKey(), got.MaxKey(), orig.MinKey(), orig.MaxKey())
	}
	for _, e := range entries {
		if !got.MayContainKey(e.Key) {
			t.Fatalf("persisted filter lost key %q", e.Key)
		}
		c, ok := got.Get(e.Key)
		if !ok || !bytes.Equal(c.Value, e.Cell.Value) || c.TS != e.Cell.TS {
			t.Fatalf("Get(%q) = %+v, %v", e.Key, c, ok)
		}
	}
	if got.MayContainKey([]byte("zz-not-there/col")) {
		// Not fatal (bloom filters may false-positive) but with 120 keys
		// this particular probe staying negative pins the filter as real.
		t.Log("filter false positive on probe key")
	}
}

func TestFileRoundtripMultiBlock(t *testing.T) {
	// More entries than one block holds, so block framing is exercised.
	entries := mkRowEntries(blockEntries, 3)
	got, err := DecodeFile(Build(entries).EncodeFile())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(entries) {
		t.Fatalf("decoded %d entries, want %d", got.Len(), len(entries))
	}
}

func TestFileRoundtripEmpty(t *testing.T) {
	got, err := DecodeFile(Build(nil).EncodeFile())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.MayContainKey([]byte("any")) {
		t.Fatalf("empty table decoded as %d entries", got.Len())
	}
}

// TestFileCorruptionDetected: any flipped byte in a data block must
// surface as ErrCorrupt, never as silently different entries.
func TestFileCorruptionDetected(t *testing.T) {
	entries := mkRowEntries(20, 2)
	enc := Build(entries).EncodeFile()

	// Flip a byte inside the first block's payload (past magic, version,
	// block count, length and crc — offset 20 is safely in entry data).
	bad := append([]byte(nil), enc...)
	bad[20] ^= 0x01
	if _, err := DecodeFile(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped data byte decoded: %v", err)
	}

	// Truncation anywhere must fail too.
	for _, cut := range []int{1, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeFile(enc[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated at %d decoded: %v", cut, err)
		}
	}

	// Bad magic and bad trailer.
	bad = append([]byte(nil), enc...)
	bad[0] = 'X'
	if _, err := DecodeFile(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic decoded: %v", err)
	}
	bad = append([]byte(nil), enc...)
	bad[len(bad)-1] = 'X'
	if _, err := DecodeFile(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad trailer decoded: %v", err)
	}
}

// TestWriteToReadFrom covers the atomic write path: the final name
// holds a complete file and no temp residue survives a successful
// write.
func TestWriteToReadFrom(t *testing.T) {
	dir := t.TempDir()
	b := physfs.New(dir)
	entries := mkRowEntries(10, 2)
	if err := WriteTo(b, "0001.sst", Build(entries)); err != nil {
		t.Fatal(err)
	}
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
	got, err := ReadFrom(b, "0001.sst")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Entries(), entries) {
		t.Fatal("WriteTo/ReadFrom changed entries")
	}
}

func TestFileTombstonesSurvive(t *testing.T) {
	entries := []model.Entry{
		{Key: []byte("r1/a"), Cell: model.Cell{Value: []byte("v"), TS: 1}},
		{Key: []byte("r1/b"), Cell: model.Cell{TS: 2, Tombstone: true}},
	}
	got, err := DecodeFile(Build(entries).EncodeFile())
	if err != nil {
		t.Fatal(err)
	}
	c, ok := got.Get([]byte("r1/b"))
	if !ok || !c.Tombstone || c.TS != 2 {
		t.Fatalf("tombstone mangled: %+v, %v", c, ok)
	}
}

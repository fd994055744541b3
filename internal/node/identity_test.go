package node

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"vstore/internal/lsm"
	"vstore/internal/model"
	physfs "vstore/internal/physical/fs"
	"vstore/internal/sstable"
	"vstore/internal/transport"
	"vstore/internal/wal"
)

// Hashes of this test's script: the bytes of every WAL segment, sstable
// run and manifest a durable node writes, and every pre-image a put
// returns. The script's cells carry no metadata since cells stopped
// carrying dots; the commit before that change gives the same two
// hashes for it. The files hash was re-recorded once more when
// compaction began merging only the newest size tier of runs: a
// different set of runs exists at the end of the script, in the same
// format. It was re-recorded again when a store began logging each
// row as one WAL record (a new record type) and flushing only between
// rows: the segments hold fewer, larger records and the runs end at
// row boundaries. Re-record only for a deliberate on-disk format
// change or a change in which runs the engine writes.
const (
	identityFilesHash = "929dd962dfe287d968dd0dc3ac2e8504b2844c32afeb93845f240ca2fa10fda7"
	identityReadsHash = "cae478ae955a5500436479d62669d85fdde5ee7d41ae925f02477579737a7183"
)

// TestDurableBytesIdentical replays a fixed script of puts — rows of
// one to six cells, columns out of sorted order and repeated, stale and
// tied timestamps, tombstones, pre-reads — and replicated
// entry batches through a durable node whose memtable flushes every few
// rows, then hashes the files left on disk. It logs every file's size.
func TestDurableBytesIdentical(t *testing.T) {
	dir := t.TempDir()
	st, err := wal.OpenStorage(physfs.New(dir), wal.Options{Policy: wal.SyncAlways, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	n := New(Options{ID: 2, LSM: lsm.Options{FlushBytes: 512, CompactAt: 4, Seed: 7}, Durable: st})

	rng := rand.New(rand.NewSource(20130408))
	cols := []string{"skey", "payload", "a", "zz", "m\x00id", "", "status", "k" + string(model.EncodeKey("base-7", "payload"))}
	reads := sha256.New()
	cell := func(i int) model.Cell {
		c := model.Cell{TS: int64(1000 + rng.Intn(40))}
		switch rng.Intn(8) {
		case 0:
			c.Tombstone = true
		case 1: // empty value
		default:
			c.Value = []byte(fmt.Sprintf("v%d-%0*d", i, rng.Intn(40), i))
		}
		return c
	}
	for i := 0; i < 600; i++ {
		table := []string{"data", "view"}[rng.Intn(2)]
		row := fmt.Sprintf("row-%0*d", 1+rng.Intn(3), rng.Intn(9))
		if rng.Intn(25) == 0 {
			var entries []model.Entry
			for j := rng.Intn(7); j >= 0; j-- {
				entries = append(entries, model.Entry{
					Key:  model.EncodeKey(fmt.Sprintf("row-%d", rng.Intn(9)), cols[rng.Intn(len(cols))]),
					Cell: cell(i),
				})
			}
			if _, err := n.HandleRequest(0, transport.ApplyEntriesReq{Table: table, Entries: entries}); err != nil {
				t.Fatalf("step %d: apply entries: %v", i, err)
			}
			continue
		}
		req := transport.PutReq{Table: table, Row: row}
		for j := rng.Intn(6); j >= 0; j-- {
			req.Updates = append(req.Updates, model.ColumnUpdate{Column: cols[rng.Intn(len(cols))], Cell: cell(i)})
		}
		for j := rng.Intn(3); j > 0; j-- {
			req.ReturnVersionsOf = append(req.ReturnVersionsOf, cols[rng.Intn(len(cols))])
		}
		resp, err := n.HandleRequest(0, req)
		if err != nil {
			t.Fatalf("step %d: put: %v", i, err)
		}
		// The pre-images by name, a repeated column once, as the hash
		// was recorded from a map.
		old := model.Row{}
		for j, c := range req.ReturnVersionsOf {
			old[c] = resp.(transport.PutResp).Old[j]
		}
		names := make([]string, 0, len(old))
		for c := range old {
			names = append(names, c)
		}
		sort.Strings(names)
		for _, c := range names {
			o := old[c]
			fmt.Fprintf(reads, "%d %q %q %d %v\n", i, c, o.Value, o.TS, o.Tombstone)
		}
	}
	for _, table := range []string{"data", "view"} {
		if s := n.TableStats(table); s.Flushes < 3 || s.Compactions == 0 {
			t.Fatalf("script too small to flush and compact %s: %+v", table, s)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	files := sha256.New()
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(files, "%s %d %x\n", filepath.ToSlash(rel), len(data), sha256.Sum256(data))
		if !strings.HasSuffix(rel, ".sst") {
			t.Logf("%s: %d bytes", filepath.ToSlash(rel), len(data))
		} else {
			// A run's bytes are a function of its entries alone.
			tbl, err := sstable.DecodeFile(data)
			if err != nil {
				return fmt.Errorf("%s: %w", rel, err)
			}
			if !bytes.Equal(tbl.EncodeFile(), data) {
				t.Errorf("%s: run file does not round-trip through DecodeFile and EncodeFile", rel)
			}
			t.Logf("%s: %d bytes, %d entries", filepath.ToSlash(rel), len(data), tbl.Len())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(files.Sum(nil)); got != identityFilesHash {
		t.Errorf("on-disk bytes moved: files hash %s, want %s", got, identityFilesHash)
	}
	if got := hex.EncodeToString(reads.Sum(nil)); got != identityReadsHash {
		t.Errorf("pre-images moved: reads hash %s, want %s", got, identityReadsHash)
	}
}

package wal

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"vstore/internal/model"
	"vstore/internal/physical"
	physmem "vstore/internal/physical/mem"
	"vstore/internal/race"
)

// recoverTail reopens the storage on b and returns the recovered WAL
// tail of table "base" and the recovery stats.
func recoverTail(t *testing.T, b physical.Backend) ([]model.Entry, RecoveryStats) {
	t.Helper()
	s := openStorage(t, b)
	t.Cleanup(func() { s.Close() })
	rec, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	return rec.Tables["base"].Tail, rec.Stats
}

// TestTornRowRecordDropsRow: a crash that tears the final row record
// loses every cell of that row and none of the rows logged before it.
func TestTornRowRecordDropsRow(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b physical.Backend) {
		s := openStorage(t, b)
		ts := s.Table("base")
		first, torn := mkEntries(3, 1), mkEntries(5, 2)
		for _, es := range [][]model.Entry{first, torn} {
			if err := ts.AppendMutations(es); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Abandon(); err != nil {
			t.Fatal(err)
		}
		segs, err := listSegments(s.tableWAL("base"))
		if err != nil || len(segs) != 1 {
			t.Fatalf("segments %v, %v; want one", segs, err)
		}
		name := walDirName + "/" + tableDirName("base") + "/" + segs[0].name
		data, err := b.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		// Cut inside the last cell of the second row's record.
		rewrite(t, b, name, data[:len(data)-2])

		tail, stats := recoverTail(t, b)
		if !reflect.DeepEqual(tail, first) {
			t.Fatalf("recovered tail %v, want the first row %v", tail, first)
		}
		if stats.RecordsReplayed != 1 || stats.TornTails != 1 {
			t.Fatalf("stats %+v, want one record and one torn tail", stats)
		}
	})
}

// TestMixedRecordsReplayInOrder: a log whose older records hold one
// cell each (recMutation, as stores once wrote them) and whose newer
// ones hold rows replays every cell in log order.
func TestMixedRecordsReplayInOrder(t *testing.T) {
	b := physmem.New()
	s := openStorage(t, b)
	l, err := s.tableLog("base")
	if err != nil {
		t.Fatal(err)
	}
	ts := s.Table("base")
	var want []model.Entry
	for round := int64(1); round <= 3; round++ {
		for _, e := range mkEntries(2, round) {
			if err := l.Append(encodeMutation(e.Key, e.Cell)); err != nil {
				t.Fatal(err)
			}
			want = append(want, e)
		}
		row := mkEntries(3, 10+round)
		if err := ts.AppendMutations(row); err != nil {
			t.Fatal(err)
		}
		want = append(want, row...)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	tail, stats := recoverTail(t, b)
	if !reflect.DeepEqual(tail, want) {
		t.Fatalf("replayed\n%v\nwant\n%v", tail, want)
	}
	if stats.RecordsReplayed != 9 {
		t.Fatalf("replayed %d records, want 9", stats.RecordsReplayed)
	}
}

// TestAppendRefusesOversizedRecord: a payload replay would take for a
// torn frame is never written.
func TestAppendRefusesOversizedRecord(t *testing.T) {
	b := physmem.New()
	l, err := OpenLog(b, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(make([]byte, maxRecordBytes+1)); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversized append: %v, want ErrRecordTooLarge", err)
	}
	if err := l.Append(make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	st, err := ReplayDir(b, func([]byte) error { return nil })
	if err != nil || st.Records != 1 || st.Bytes != 16 {
		t.Fatalf("replay %+v, %v; want the one small record", st, err)
	}
}

// TestAppendsAllocateNothing: a table-log append and an intent-log
// start and done encode into buffers they reuse.
func TestAppendsAllocateNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s, err := OpenStorage(physmem.New(), Options{Policy: SyncAlways, SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := s.Table("base")
	row := mkEntries(6, 1)
	if err := ts.AppendMutations(row); err != nil { // opens the log
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(1000, func() {
		if err := ts.AppendMutations(row); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("table-log append allocates %v times, want 0", got)
	}
	it := Intent{Table: "base", Row: "r", Updates: []model.ColumnUpdate{model.Update("vk", []byte("v"), 1), model.Update("val", []byte("w"), 1)}}
	if got := testing.AllocsPerRun(1000, func() {
		it.ID = s.NextIntentID()
		if err := s.LogIntentStart(it); err != nil {
			t.Fatal(err)
		}
		if err := s.LogIntentDone(it.ID); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("intent-log start and done allocate %v times, want 0", got)
	}
}

// FuzzDecodeRecord feeds arbitrary payloads — what a segment holds
// behind a valid CRC — to recordType and every record decoder. None
// may panic, none may allocate more than the payload's size accounts
// for (a count is checked against the bytes left before it sizes
// anything), and whatever decodes must decode the same after encoding.
func FuzzDecodeRecord(f *testing.F) {
	f.Add(appendMutations(nil, mkEntries(3, 7)))
	f.Add(appendMutations(nil, []model.Entry{{Key: []byte("k"), Cell: model.Cell{TS: -3, Tombstone: true}}}))
	f.Add(encodeMutation([]byte("k"), model.Cell{Value: []byte("v"), TS: 1}))
	f.Add(oldMutation())
	f.Add(appendIntentStart(nil, Intent{ID: 9, Table: "base", Row: "r1", Updates: []model.ColumnUpdate{model.Update("vk", []byte("v"), 42)}}))
	f.Add(appendIntentDone(nil, 9))
	f.Add([]byte{recMutations, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, p []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		typ, body, err := recordType(p)
		if err != nil {
			return
		}
		var again any
		var got any
		switch typ {
		case recMutation:
			e, err := decodeMutation(body)
			if err != nil {
				return
			}
			got = e
			again, err = decodeMutation(encodeMutation(e.Key, e.Cell)[1:])
			if err != nil {
				t.Fatalf("re-encoded mutation does not decode: %v", err)
			}
		case recMutations:
			es, err := decodeMutations(body, nil)
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+128*uint64(len(p)) {
				t.Fatalf("decoding %d bytes allocated %d", len(p), grew)
			}
			if err != nil {
				return
			}
			got = es
			again, err = decodeMutations(appendMutations(nil, es)[1:], nil)
			if err != nil {
				t.Fatalf("re-encoded mutations do not decode: %v", err)
			}
		case recIntentStart:
			it, err := decodeIntentStart(body)
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+128*uint64(len(p)) {
				t.Fatalf("decoding %d bytes allocated %d", len(p), grew)
			}
			if err != nil {
				return
			}
			got = it
			again, err = decodeIntentStart(appendIntentStart(nil, it)[1:])
			if err != nil {
				t.Fatalf("re-encoded intent does not decode: %v", err)
			}
		case recIntentDone:
			id, err := decodeIntentDone(body)
			if err != nil {
				return
			}
			got = id
			again, err = decodeIntentDone(appendIntentDone(nil, id)[1:])
			if err != nil {
				t.Fatalf("re-encoded done does not decode: %v", err)
			}
		default:
			t.Fatalf("recordType accepted type %d", typ)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("round trip drifted:\n%+v\n%+v", got, again)
		}
	})
}

// TestConcurrentTableAppends: goroutines appending rows through one
// TableStorage and through a second handle on the same table share the
// table's log and the handle's buffer; every row replays whole.
func TestConcurrentTableAppends(t *testing.T) {
	b := physmem.New()
	s := openStorage(t, b)
	handles := []*TableStorage{s.Table("base"), s.Table("base")}
	const writers, rows = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(ts *TableStorage) {
			defer wg.Done()
			for r := 0; r < rows; r++ {
				if err := ts.AppendMutations(mkEntries(3, int64(r))); err != nil {
					t.Error(err)
					return
				}
			}
		}(handles[w%2])
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	tail, stats := recoverTail(t, b)
	if stats.RecordsReplayed != writers*rows || len(tail) != 3*writers*rows {
		t.Fatalf("replayed %d records, %d cells; want %d and %d", stats.RecordsReplayed, len(tail), writers*rows, 3*writers*rows)
	}
	for i := 0; i < len(tail); i += 3 {
		if ts := tail[i].Cell.TS; tail[i+1].Cell.TS != ts || tail[i+2].Cell.TS != ts {
			t.Fatalf("record at %d interleaved: %v", i, tail[i:i+3])
		}
	}
}

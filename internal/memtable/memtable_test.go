package memtable

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"vstore/internal/model"
)

func key(row, col string) []byte { return model.EncodeKey(row, col) }

func TestApplyGet(t *testing.T) {
	m := New(1)
	m.Apply(key("r1", "c1"), model.Cell{Value: []byte("v1"), TS: 1})
	got, ok := m.Get(key("r1", "c1"))
	if !ok || string(got.Value) != "v1" {
		t.Fatalf("Get = %v,%v", got, ok)
	}
	if _, ok := m.Get(key("r1", "c2")); ok {
		t.Fatal("absent cell returned ok")
	}
}

func TestApplyLWW(t *testing.T) {
	m := New(1)
	k := key("r", "c")
	m.Apply(k, model.Cell{Value: []byte("new"), TS: 10})
	m.Apply(k, model.Cell{Value: []byte("old"), TS: 5}) // must lose
	got, _ := m.Get(k)
	if string(got.Value) != "new" || got.TS != 10 {
		t.Fatalf("stale write overwrote newer cell: %v", got)
	}
	m.Apply(k, model.Cell{TS: 20, Tombstone: true})
	got, _ = m.Get(k)
	if !got.Tombstone {
		t.Fatalf("tombstone lost: %v", got)
	}
}

func TestScanPrefixIsolatesRows(t *testing.T) {
	m := New(1)
	m.Apply(key("a", "c1"), model.Cell{TS: 1})
	m.Apply(key("a", "c2"), model.Cell{TS: 1})
	m.Apply(key("ab", "c1"), model.Cell{TS: 1}) // must not leak into row "a"
	m.Apply(key("b", "c1"), model.Cell{TS: 1})
	h := m.Row(model.RowPrefix("a"))
	got := h.AppendTo(nil)
	if len(got) != 2 {
		t.Fatalf("row a has %d entries, want 2", len(got))
	}
	for _, e := range got {
		row, _, err := model.DecodeKey(e.Key)
		if err != nil || row != "a" {
			t.Fatalf("row a leaked row %q", row)
		}
	}
}

func TestSnapshotSortedComplete(t *testing.T) {
	m := New(1)
	for i := 0; i < 100; i++ {
		m.Apply(key(fmt.Sprintf("row%02d", i%10), fmt.Sprintf("c%d", i/10)), model.Cell{TS: int64(i)})
	}
	snap := m.Snapshot()
	if len(snap) != 100 {
		t.Fatalf("snapshot has %d entries, want 100", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if string(snap[i-1].Key) >= string(snap[i].Key) {
			t.Fatal("snapshot not sorted")
		}
	}
	if m.Len() != 100 {
		t.Fatalf("Len = %d", m.Len())
	}
}

// TestReadersShare runs every read path from several goroutines at
// once over a memtable nobody writes: the sharing lsm.Store's read lock
// allows. The race detector is the assertion.
func TestReadersShare(t *testing.T) {
	m := New(1)
	for i := 0; i < 400; i++ {
		m.Apply(key(fmt.Sprintf("row%d", i%20), fmt.Sprintf("c%d", i/20)), model.Cell{Value: []byte{byte(i)}, TS: int64(i)})
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				row := fmt.Sprintf("row%d", (i+w)%20)
				if _, ok := m.Get(key(row, "c3")); !ok {
					t.Errorf("%s/c3 missing", row)
				}
				h := m.Row(model.RowPrefix(row))
				if got := len(h.AppendTo(nil)); got != 20 {
					t.Errorf("row %s has %d cells, want 20", row, got)
				}
				if _, ok := h.Get(key(row, "c7")); !ok {
					t.Errorf("%s/c7 missing through the row handle", row)
				}
				if i%50 == 0 && (len(m.Snapshot()) != 400 || len(m.RowsFrom(nil, 100)) != 20) {
					t.Error("snapshot or row scan came up short")
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestApproxBytesGrows(t *testing.T) {
	m := New(1)
	before := m.ApproxBytes()
	m.Apply(key("row", "col"), model.Cell{Value: make([]byte, 100), TS: 1})
	if m.ApproxBytes() <= before {
		t.Fatal("ApproxBytes did not grow after insert")
	}
}

func TestApproxBytesTracksMergedValues(t *testing.T) {
	m := New(1)
	k := key("row", "col")
	m.Apply(k, model.Cell{Value: make([]byte, 100), TS: 1})
	after100 := m.ApproxBytes()
	// A winning update to a larger value must grow the estimate by the
	// size delta, not leave it at the superseded value's size.
	m.Apply(k, model.Cell{Value: make([]byte, 300), TS: 2})
	after300 := m.ApproxBytes()
	if after300 != after100+200 {
		t.Fatalf("ApproxBytes after growth = %d, want %d", after300, after100+200)
	}
	// A winning update to a smaller value shrinks it.
	m.Apply(k, model.Cell{Value: make([]byte, 50), TS: 3})
	if got := m.ApproxBytes(); got != after100-50 {
		t.Fatalf("ApproxBytes after shrink = %d, want %d", got, after100-50)
	}
	// A losing update leaves accounting untouched.
	m.Apply(k, model.Cell{Value: make([]byte, 1000), TS: 2})
	if got := m.ApproxBytes(); got != after100-50 {
		t.Fatalf("ApproxBytes after losing write = %d, want %d", got, after100-50)
	}
}

// TestKeysSurviveArenaGrowth fills several arena chunks, one key larger
// than a chunk among them, and checks that no key handed out earlier
// moved or was overwritten.
func TestKeysSurviveArenaGrowth(t *testing.T) {
	m := New(5)
	n := 3*arenaChunk/16 + 10
	for i := 0; i < n; i++ {
		m.Apply(key(fmt.Sprintf("r%d", i%7), fmt.Sprintf("c-%09d", i)), model.Cell{TS: 1})
		if i == n/2 {
			m.Apply(key("big", strings.Repeat("x", 2*arenaChunk)), model.Cell{TS: 1})
		}
	}
	held := m.Snapshot()
	copies := make([]string, len(held))
	for i, e := range held {
		copies[i] = string(e.Key)
	}
	for i := 0; i < n; i++ {
		m.Apply(key(fmt.Sprintf("r%d", i%7), fmt.Sprintf("d-%09d", i)), model.Cell{TS: 2})
	}
	for i, e := range held {
		if string(e.Key) != copies[i] {
			t.Fatalf("key %d changed from %q to %q after later writes", i, copies[i], e.Key)
		}
	}
	if got := m.Len(); got != 2*n+1 {
		t.Fatalf("Len = %d, want %d", got, 2*n+1)
	}
}

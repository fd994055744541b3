package node

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vstore/internal/clock"
	"vstore/internal/lsm"
	"vstore/internal/model"
	"vstore/internal/ring"
	"vstore/internal/sstable"
	"vstore/internal/transport"
)

func put(t *testing.T, n *Node, table, row, col, val string, ts int64) transport.PutResp {
	t.Helper()
	resp, err := n.HandleRequest(0, transport.PutReq{
		Table:   table,
		Row:     row,
		Updates: []model.ColumnUpdate{model.Update(col, []byte(val), ts)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp.(transport.PutResp)
}

// get reads the named columns of a row: the reply's cells by name.
func get(t *testing.T, n *Node, table, row string, cols ...string) model.Row {
	t.Helper()
	resp, err := n.HandleRequest(0, transport.GetReq{Table: table, Row: row, Columns: cols})
	if err != nil {
		t.Fatal(err)
	}
	cells := resp.(transport.GetResp).Cells
	if len(cells) != len(cols) {
		t.Fatalf("get %v returned %d cells", cols, len(cells))
	}
	out := model.Row{}
	for i, col := range cols {
		out[col] = cells[i]
	}
	return out
}

func TestPutGet(t *testing.T) {
	n := New(Options{ID: 1})
	put(t, n, "t", "r", "c", "v", 5)
	row := get(t, n, "t", "r", "c")
	if string(row["c"].Value) != "v" || row["c"].TS != 5 {
		t.Fatalf("got %v", row["c"])
	}
}

func TestGetAllColumns(t *testing.T) {
	n := New(Options{ID: 1})
	put(t, n, "t", "r", "a", "1", 1)
	put(t, n, "t", "r", "b", "2", 1)
	put(t, n, "t", "r", "a", "1", 1)
	resp, err := n.HandleRequest(0, transport.GetReq{Table: "t", Row: "r", AllColumns: true})
	if err != nil {
		t.Fatal(err)
	}
	row := resp.(transport.RowResp).Cells
	if len(row) != 2 || string(row[0].Key) != "a" || string(row[0].Cell.Value) != "1" || string(row[1].Key) != "b" {
		t.Fatalf("AllColumns returned %v, want a then b", row)
	}
}

func TestPutPreRead(t *testing.T) {
	n := New(Options{ID: 1})
	put(t, n, "t", "r", "vk", "old", 1)
	resp, err := n.HandleRequest(0, transport.PutReq{
		Table:            "t",
		Row:              "r",
		Updates:          []model.ColumnUpdate{model.Update("vk", []byte("new"), 2)},
		ReturnVersionsOf: []string{"vk"},
	})
	if err != nil {
		t.Fatal(err)
	}
	pr := resp.(transport.PutResp)
	if len(pr.Old) != 1 || string(pr.Old[0].Value) != "old" || pr.Old[0].TS != 1 {
		t.Fatalf("pre-read returned %v", pr)
	}
	// The write itself must have landed.
	if row := get(t, n, "t", "r", "vk"); string(row["vk"].Value) != "new" {
		t.Fatalf("write lost: %v", row["vk"])
	}
}

func TestPutPreReadOfAbsentCell(t *testing.T) {
	n := New(Options{ID: 1})
	resp, _ := n.HandleRequest(0, transport.PutReq{
		Table:            "t",
		Row:              "new-row",
		Updates:          []model.ColumnUpdate{model.Update("vk", []byte("first"), 1)},
		ReturnVersionsOf: []string{"vk"},
	})
	pr := resp.(transport.PutResp)
	if len(pr.Old) != 1 || !pr.Old[0].Equal(model.NullCell) {
		t.Fatalf("pre-read of absent cell = %v, want NullCell", pr)
	}
}

func TestStaleWriteLosesLocally(t *testing.T) {
	n := New(Options{ID: 1})
	put(t, n, "t", "r", "c", "new", 10)
	put(t, n, "t", "r", "c", "old", 5)
	if row := get(t, n, "t", "r", "c"); string(row["c"].Value) != "new" {
		t.Fatalf("stale write won: %v", row["c"])
	}
}

func queryIndex(t *testing.T, n *Node, table, col, val string) []transport.IndexMatch {
	t.Helper()
	resp, err := n.HandleRequest(0, transport.IndexQueryReq{Table: table, Column: col, Value: []byte(val)})
	if err != nil {
		t.Fatal(err)
	}
	return resp.(transport.IndexQueryResp).Matches
}

func TestIndexMaintenance(t *testing.T) {
	n := New(Options{ID: 1})
	n.CreateIndex("t", "city")
	put(t, n, "t", "u1", "city", "kitchener", 1)
	put(t, n, "t", "u2", "city", "kitchener", 1)
	put(t, n, "t", "u3", "city", "waterloo", 1)

	if m := queryIndex(t, n, "t", "city", "kitchener"); len(m) != 2 {
		t.Fatalf("kitchener matches = %d, want 2", len(m))
	}
	// Update moves u1 to waterloo: index must drop the old entry.
	put(t, n, "t", "u1", "city", "waterloo", 2)
	if m := queryIndex(t, n, "t", "city", "kitchener"); len(m) != 1 || m[0].Row != "u2" {
		t.Fatalf("kitchener after move = %v", m)
	}
	if m := queryIndex(t, n, "t", "city", "waterloo"); len(m) != 2 {
		t.Fatalf("waterloo after move = %d matches", len(m))
	}
}

func TestIndexIgnoresLosingWrite(t *testing.T) {
	n := New(Options{ID: 1})
	n.CreateIndex("t", "city")
	put(t, n, "t", "u1", "city", "new", 10)
	put(t, n, "t", "u1", "city", "stale", 5) // loses LWW
	if m := queryIndex(t, n, "t", "city", "stale"); len(m) != 0 {
		t.Fatalf("losing write polluted index: %v", m)
	}
	if m := queryIndex(t, n, "t", "city", "new"); len(m) != 1 {
		t.Fatalf("index lost winning entry: %v", m)
	}
}

func TestIndexDeletion(t *testing.T) {
	n := New(Options{ID: 1})
	n.CreateIndex("t", "city")
	put(t, n, "t", "u1", "city", "x", 1)
	n.HandleRequest(0, transport.PutReq{
		Table:   "t",
		Row:     "u1",
		Updates: []model.ColumnUpdate{model.Deletion("city", 2)},
	})
	if m := queryIndex(t, n, "t", "city", "x"); len(m) != 0 {
		t.Fatalf("deleted row still indexed: %v", m)
	}
}

func TestIndexBackfill(t *testing.T) {
	n := New(Options{ID: 1})
	put(t, n, "t", "u1", "city", "x", 1)
	put(t, n, "t", "u2", "city", "y", 1)
	n.CreateIndex("t", "city")
	if m := queryIndex(t, n, "t", "city", "x"); len(m) != 1 || m[0].Row != "u1" {
		t.Fatalf("backfill missed rows: %v", m)
	}
	// Creating the same index twice is a no-op.
	n.CreateIndex("t", "city")
	if m := queryIndex(t, n, "t", "city", "x"); len(m) != 1 {
		t.Fatalf("duplicate CreateIndex corrupted fragment: %v", m)
	}
}

// gateClock parks every service-time sleep until released, reporting
// each one, so a test can act while a request waits for its slot.
type gateClock struct {
	clock.Clock
	asleep, wake chan struct{}
}

func (g gateClock) Sleep(time.Duration) {
	g.asleep <- struct{}{}
	<-g.wake
}

// TestIndexCreatedWhilePutWaits creates an index while a put sits out
// its service time. The back-fill cannot see the put, so the put must
// see the index.
func TestIndexCreatedWhilePutWaits(t *testing.T) {
	clk := gateClock{Clock: clock.Wall, asleep: make(chan struct{}), wake: make(chan struct{})}
	n := New(Options{ID: 1, Clock: clk, Service: ServiceTimes{Write: time.Millisecond, IndexWrite: time.Millisecond}})
	done := make(chan error)
	go func() {
		_, err := n.HandleRequest(0, transport.PutReq{
			Table: "t", Row: "u1", Updates: []model.ColumnUpdate{model.Update("city", []byte("x"), 1)},
		})
		done <- err
	}()
	<-clk.asleep
	n.CreateIndex("t", "city")
	close(clk.wake)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if m := queryIndex(t, n, "t", "city", "x"); len(m) != 1 || m[0].Row != "u1" {
		t.Fatalf("index created during the put's wait lacks the put: %v", m)
	}
}

// gatePersist is a memory store's log that parks the append of a
// record holding one key until released, reporting when it got there: a write to that key then
// holds its store's lock for as long as the test likes.
type gatePersist struct {
	key              []byte
	entered, release chan struct{}
}

func (g gatePersist) AppendMutations(es []model.Entry) error {
	for _, e := range es {
		if bytes.Equal(e.Key, g.key) {
			close(g.entered)
			<-g.release
		}
	}
	return nil
}

func (gatePersist) FlushRun(*sstable.Table) (uint64, error)              { return 0, nil }
func (gatePersist) ReplaceRuns([]uint64, *sstable.Table) (uint64, error) { return 0, nil }

// waitBlocked returns once some goroutine whose stack passes through fn
// is blocked on a lock.
func waitBlocked(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			header, _, _ := strings.Cut(g, "\n")
			if strings.Contains(g, fn) && (strings.Contains(header, "Lock") || strings.Contains(header, "semacquire")) {
				return
			}
		}
	}
	t.Fatalf("no goroutine blocked in %s", fn)
}

// TestIndexCreatedBetweenLookupAndApply creates an index after a put
// has read the table's index set — without the new index — but before
// it applies. The put is held at the store lock by another put of the
// table parked in its log append, and the back-fill's snapshot reaches
// that lock first: unless CreateIndex waits for every write that read
// the old set, the snapshot misses the put, the put misses the index,
// and the row is never indexed.
func TestIndexCreatedBetweenLookupAndApply(t *testing.T) {
	rowQ := "q"
	for i := 0; rowQ == "q" || ring.HashJoined("t", rowQ)%64 == ring.HashJoined("t", "u1")%64; i++ {
		rowQ = fmt.Sprintf("q%d", i) // a row on another lock stripe than u1
	}
	gate := gatePersist{key: model.EncodeKey(rowQ, "city"), entered: make(chan struct{}), release: make(chan struct{})}
	n := New(Options{ID: 1, LSM: lsm.Options{Persist: gate}})
	puts := make(chan error, 2)
	putCity := func(row, city string) {
		_, err := n.HandleRequest(0, transport.PutReq{
			Table: "t", Row: row, Updates: []model.ColumnUpdate{model.Update("city", []byte(city), 1)},
		})
		puts <- err
	}
	go putCity(rowQ, "y")
	<-gate.entered // rowQ's put holds the store lock
	go putCity("u1", "x")
	waitBlocked(t, "lsm.(*Store).ApplyRow") // u1's put read the index set and waits for the store
	created := make(chan struct{})
	go func() {
		n.CreateIndex("t", "city")
		close(created)
	}()
	waitBlocked(t, "node.(*Node).CreateIndex")
	close(gate.release)
	for i := 0; i < 2; i++ {
		if err := <-puts; err != nil {
			t.Fatal(err)
		}
	}
	<-created
	for city, row := range map[string]string{"x": "u1", "y": rowQ} {
		if m := queryIndex(t, n, "t", "city", city); len(m) != 1 || m[0].Row != row {
			t.Errorf("index on %q = %v, want row %s", city, m, row)
		}
	}
}

func TestIndexQueryReturnsColumns(t *testing.T) {
	n := New(Options{ID: 1})
	n.CreateIndex("t", "city")
	put(t, n, "t", "u1", "city", "x", 1)
	put(t, n, "t", "u1", "name", "alice", 1)
	resp, _ := n.HandleRequest(0, transport.IndexQueryReq{
		Table: "t", Column: "city", Value: []byte("x"), ReadColumns: []string{"name"},
	})
	m := resp.(transport.IndexQueryResp).Matches
	if len(m) != 1 || len(m[0].Cells) != 1 || string(m[0].Cells[0].Value) != "alice" {
		t.Fatalf("matches = %v", m)
	}
	if string(m[0].IndexedCell.Value) != "x" {
		t.Fatalf("IndexedCell = %v", m[0].IndexedCell)
	}
}

func TestIndexQueryUnindexedColumn(t *testing.T) {
	n := New(Options{ID: 1})
	if m := queryIndex(t, n, "t", "nope", "x"); len(m) != 0 {
		t.Fatal("query on unindexed column returned matches")
	}
}

func TestApplyEntries(t *testing.T) {
	n := New(Options{ID: 1})
	n.CreateIndex("t", "c")
	_, err := n.HandleRequest(0, transport.ApplyEntriesReq{
		Table: "t",
		Entries: []model.Entry{
			{Key: model.EncodeKey("r1", "c"), Cell: model.Cell{Value: []byte("v"), TS: 3}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if row := get(t, n, "t", "r1", "c"); string(row["c"].Value) != "v" {
		t.Fatalf("entry not applied: %v", row)
	}
	// Index fragments must track entries applied via replication paths
	// too, or anti-entropy would silently diverge the index.
	if m := queryIndex(t, n, "t", "c", "v"); len(m) != 1 {
		t.Fatalf("replicated entry not indexed: %v", m)
	}
}

func TestApplyEntriesCorruptKey(t *testing.T) {
	n := New(Options{ID: 1})
	_, err := n.HandleRequest(0, transport.ApplyEntriesReq{
		Table:   "t",
		Entries: []model.Entry{{Key: []byte{0xff}}},
	})
	if err == nil {
		t.Fatal("corrupt key accepted")
	}
}

func TestDigestAndBucketFetch(t *testing.T) {
	a, b := New(Options{ID: 1}), New(Options{ID: 2})
	for i := 0; i < 50; i++ {
		put(t, a, "t", fmt.Sprintf("r%d", i), "c", "v", 1)
		put(t, b, "t", fmt.Sprintf("r%d", i), "c", "v", 1)
	}
	const buckets = 8
	da, _ := a.HandleRequest(0, transport.DigestReq{Table: "t", Buckets: buckets, For: -1})
	db, _ := b.HandleRequest(0, transport.DigestReq{Table: "t", Buckets: buckets, For: -1})
	la, lb := da.(transport.DigestResp).Leaves, db.(transport.DigestResp).Leaves
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("identical nodes digest differently at bucket %d", i)
		}
	}
	// Diverge one row; exactly its bucket must change.
	put(t, b, "t", "r7", "c", "changed", 2)
	db2, _ := b.HandleRequest(0, transport.DigestReq{Table: "t", Buckets: buckets, For: -1})
	lb2 := db2.(transport.DigestResp).Leaves
	want := BucketOf(model.EncodeKey("r7", "c"), buckets)
	for i := range lb2 {
		differs := lb2[i] != la[i]
		if differs != (i == want) {
			t.Fatalf("bucket %d differs=%v, want divergence only at %d", i, differs, want)
		}
	}
	// Fetch the divergent bucket and check the changed entry is there.
	bf, _ := b.HandleRequest(0, transport.BucketFetchReq{Table: "t", Bucket: want, Buckets: buckets, For: -1})
	found := false
	for _, e := range bf.(transport.BucketFetchResp).Entries {
		row, _, _ := model.DecodeKey(e.Key)
		if row == "r7" && string(e.Cell.Value) == "changed" {
			found = true
		}
		if BucketOf(e.Key, buckets) != want {
			t.Fatalf("bucket fetch leaked entry from bucket %d", BucketOf(e.Key, buckets))
		}
	}
	if !found {
		t.Fatal("changed entry missing from bucket fetch")
	}
}

func TestUnknownRequest(t *testing.T) {
	n := New(Options{ID: 1})
	if _, err := n.HandleRequest(0, nil); err == nil {
		t.Fatal("nil request accepted")
	}
}

func TestWorkerPoolBoundsConcurrency(t *testing.T) {
	n := New(Options{ID: 1, Workers: 2, Service: ServiceTimes{Read: 20 * time.Millisecond}})
	put(t, n, "t", "r", "c", "v", 1)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.HandleRequest(0, transport.GetReq{Table: "t", Row: "r", Columns: []string{"c"}})
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	// 6 reads of 20ms through 2 workers need >= ~60ms.
	if elapsed < 50*time.Millisecond {
		t.Fatalf("6 reads finished in %v; worker pool not limiting", elapsed)
	}
}

func TestRequestCounts(t *testing.T) {
	n := New(Options{ID: 1})
	put(t, n, "t", "r", "c", "v", 1)
	get(t, n, "t", "r", "c")
	counts := n.RequestCounts()
	if counts["put"] != 1 || counts["get"] != 1 || len(counts) != 2 {
		t.Fatalf("counts = %v, want one put, one get and no kind never seen", counts)
	}
}

func TestConcurrentIndexedWritesStayConsistent(t *testing.T) {
	n := New(Options{ID: 1})
	n.CreateIndex("t", "c")
	var wg sync.WaitGroup
	const writers, rows = 8, 10
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				row := fmt.Sprintf("r%d", i%rows)
				val := fmt.Sprintf("v%d", (i*writers+w)%5)
				n.HandleRequest(0, transport.PutReq{
					Table:   "t",
					Row:     row,
					Updates: []model.ColumnUpdate{model.Update("c", []byte(val), int64(i*writers+w))},
				})
			}
		}(w)
	}
	wg.Wait()
	// Every row must be indexed exactly once, under its current value.
	for i := 0; i < rows; i++ {
		row := fmt.Sprintf("r%d", i)
		cur := get(t, n, "t", row, "c")["c"]
		hits := 0
		for v := 0; v < 5; v++ {
			for _, m := range queryIndex(t, n, "t", "c", fmt.Sprintf("v%d", v)) {
				if m.Row == row {
					hits++
					if string(cur.Value) != fmt.Sprintf("v%d", v) {
						t.Fatalf("row %s indexed under %q but holds %q", row, fmt.Sprintf("v%d", v), cur.Value)
					}
				}
			}
		}
		if hits != 1 {
			t.Fatalf("row %s appears %d times in index", row, hits)
		}
	}
}

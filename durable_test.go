package vstore_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vstore"
	"vstore/internal/cluster"
	"vstore/internal/model"
	physfs "vstore/internal/physical/fs"
	"vstore/internal/transport"
	"vstore/internal/wal"
)

// openDurableTickets opens the running example against a disk
// directory. Close is NOT registered in cleanup — these tests close
// and reopen explicitly.
func openDurableTickets(t *testing.T, dir string) *vstore.DB {
	t.Helper()
	db, err := vstore.Open(vstore.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("ticket"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView(vstore.ViewDef{
		Name: "assignedto", Base: "ticket",
		ViewKey: "assignedto", Materialized: []string{"status"},
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestDurableReopenPreservesSchemaAndData: a clean Close / Open cycle
// against the same directory must bring back the schema (tables,
// views, indexes) and every acknowledged write, with managers wired so
// new writes keep propagating.
func TestDurableReopenPreservesSchemaAndData(t *testing.T) {
	noGoroutineOutlivesClose(t)
	dir := t.TempDir()
	db := openDurableTickets(t, dir)
	if err := db.CreateIndex("ticket", "status"); err != nil {
		t.Fatal(err)
	}
	c := db.Client(0)
	if err := c.Put(ctxT(t), "ticket", "1", vstore.Values{"assignedto": "alice", "status": "open"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctxT(t), "ticket", "2", vstore.Values{"assignedto": "bob", "status": "closed"}); err != nil {
		t.Fatal(err)
	}
	if err := db.QuiesceViews(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := vstore.Open(vstore.Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()

	rs := db2.RecoveryStats()
	if rs.Nodes == 0 || rs.RecordsReplayed == 0 {
		t.Fatalf("recovery replayed nothing: %+v", rs)
	}
	if rs.IntentsPending != 0 {
		t.Fatalf("clean shutdown left %d pending intents", rs.IntentsPending)
	}

	c2 := db2.Client(1)
	row, err := c2.Get(ctxT(t), "ticket", "1", vstore.WithColumns("status"))
	if err != nil || string(row["status"].Value) != "open" {
		t.Fatalf("base row lost: %v, %v", row, err)
	}
	rows, err := c2.GetView(ctxT(t), "assignedto", "bob")
	if err != nil || len(rows) != 1 || rows[0].BaseKey != "2" {
		t.Fatalf("view state lost: %v, %v", rows, err)
	}

	// The restored registry must still maintain the view for new writes.
	if err := c2.Put(ctxT(t), "ticket", "3", vstore.Values{"assignedto": "carol", "status": "open"}); err != nil {
		t.Fatal(err)
	}
	if err := db2.QuiesceViews(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	rows, err = c2.GetView(ctxT(t), "assignedto", "carol")
	if err != nil || len(rows) != 1 || rows[0].BaseKey != "3" {
		t.Fatalf("post-recovery propagation broken: %v, %v", rows, err)
	}
}

// TestDurableIntentDoubleReplayIdempotent models the crash window the
// intent log exists for: a propagation completed but its done record
// never reached the disk. Recovery re-runs the propagation — here
// twice, via two pending intents carrying the same update — and the
// view must end up exactly where it already was.
func TestDurableIntentDoubleReplayIdempotent(t *testing.T) {
	noGoroutineOutlivesClose(t)
	dir := t.TempDir()
	db := openDurableTickets(t, dir)
	if err := db.Client(0).Put(ctxT(t), "ticket", "7", vstore.Values{"assignedto": "alice", "status": "open"}); err != nil {
		t.Fatal(err)
	}
	if err := db.QuiesceViews(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// Re-log the already-propagated update as two pending intents on the
	// coordinator's storage, as if the done records were torn away.
	st, err := wal.OpenStorage(physfs.New(cluster.NodeDir(dir, transport.NodeID(0))), wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	updates := []model.ColumnUpdate{
		{Column: "assignedto", Cell: model.Cell{Value: []byte("alice"), TS: 1}},
		{Column: "status", Cell: model.Cell{Value: []byte("open"), TS: 1}},
	}
	for _, id := range []uint64{991, 992} {
		if err := st.LogIntentStart(wal.Intent{ID: id, Table: "ticket", Row: "7", Updates: updates}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := vstore.Open(vstore.Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	rs := db2.RecoveryStats()
	if rs.IntentsPending != 2 || rs.IntentsReenqueued != 2 {
		t.Fatalf("intents not re-enqueued: %+v", rs)
	}
	if err := db2.QuiesceViews(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	rows, err := db2.Client(2).GetView(ctxT(t), "assignedto", "alice")
	if err != nil || len(rows) != 1 {
		t.Fatalf("double replay corrupted the view: %v, %v", rows, err)
	}
	if rows[0].BaseKey != "7" || string(rows[0].Columns["status"].Value) != "open" {
		t.Fatalf("view row after replay: %+v", rows[0])
	}
	db2.Close()

	// Replay completed, so its done records are durable: a third open
	// starts with an empty pending set.
	db3, err := vstore.Open(vstore.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if rs := db3.RecoveryStats(); rs.IntentsPending != 0 {
		t.Fatalf("replayed intents still pending: %+v", rs)
	}
}

// TestDurableAbandonedIntentStaysPending: the intent log is the only
// durable record that a view is stale, so a propagation given up on
// after MaxPropagationRetry must leave its intent pending — the next
// Open finds it and converges the view. (It used to be marked done
// whatever the propagation's outcome.)
func TestDurableAbandonedIntentStaysPending(t *testing.T) {
	noGoroutineOutlivesClose(t)
	be := vstore.MemBackend()
	cfg := vstore.Config{Backend: be, Views: vstore.ViewOptions{
		// The delay is the window to take the view's quorum away in.
		PropagationDelay:    func() time.Duration { return 100 * time.Millisecond },
		MaxPropagationRetry: 150 * time.Millisecond,
	}}
	db, err := vstore.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("ticket"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView(vstore.ViewDef{Name: "assignedto", Base: "ticket", ViewKey: "assignedto", Materialized: []string{"status"}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Client(0).Put(ctxT(t), "ticket", "7", vstore.Values{"assignedto": "alice", "status": "open"}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < db.Nodes(); i++ {
		db.SetNodeDown(i, true)
	}
	for limit := time.Now().Add(10 * time.Second); db.Stats().Views.PropagationsDropped == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(limit) {
			t.Fatalf("propagation neither completed nor abandoned: %+v", db.Stats().Views)
		}
	}
	db.Close()

	db2, err := vstore.Open(vstore.Config{Backend: be})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if rs := db2.RecoveryStats(); rs.IntentsPending != 1 || rs.IntentsReenqueued != 1 {
		t.Fatalf("the abandoned propagation's intent was not left pending: %+v", rs)
	}
	if err := db2.QuiesceViews(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	rows, err := db2.Client(1).GetView(ctxT(t), "assignedto", "alice")
	if err != nil || len(rows) != 1 || rows[0].BaseKey != "7" {
		t.Fatalf("view after replay of the abandoned intent: %v, %v", rows, err)
	}
}

// TestDurableTornWALTailTolerated: garbage after the last intact record
// of a table WAL (a torn final write) must be dropped and counted, not
// fail the open or lose acknowledged data.
func TestDurableTornWALTailTolerated(t *testing.T) {
	noGoroutineOutlivesClose(t)
	dir := t.TempDir()
	db := openDurableTickets(t, dir)
	if err := db.Client(0).Put(ctxT(t), "ticket", "1", vstore.Values{"assignedto": "alice", "status": "open"}); err != nil {
		t.Fatal(err)
	}
	if err := db.QuiesceViews(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	db.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "node-*", "wal", "t_*", "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments on disk: %v", err)
	}
	f, err := os.OpenFile(segs[0], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db2, err := vstore.Open(vstore.Config{Dir: dir})
	if err != nil {
		t.Fatalf("torn tail failed the open: %v", err)
	}
	defer db2.Close()
	if rs := db2.RecoveryStats(); rs.TornTails == 0 {
		t.Fatalf("torn tail not reported: %+v", rs)
	}
	row, err := db2.Client(1).Get(ctxT(t), "ticket", "1", vstore.WithColumns("status"))
	if err != nil || string(row["status"].Value) != "open" {
		t.Fatalf("acknowledged write lost to torn tail: %v, %v", row, err)
	}
}

// TestDurableFsyncPolicies: every policy must survive a clean
// close/reopen (SyncOff still syncs on Close).
func TestDurableFsyncPolicies(t *testing.T) {
	for _, p := range []vstore.FsyncPolicy{vstore.FsyncInterval, vstore.FsyncAlways, vstore.FsyncOff} {
		t.Run(p.String(), func(t *testing.T) {
			noGoroutineOutlivesClose(t)
			dir := t.TempDir()
			db, err := vstore.Open(vstore.Config{Dir: dir, Durability: vstore.DurabilityOptions{Fsync: p}})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.CreateTable("ticket"); err != nil {
				t.Fatal(err)
			}
			if err := db.Client(0).Put(ctxT(t), "ticket", "1", vstore.Values{"status": "open"}); err != nil {
				t.Fatal(err)
			}
			db.Close()

			db2, err := vstore.Open(vstore.Config{Dir: dir, Durability: vstore.DurabilityOptions{Fsync: p}})
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			row, err := db2.Client(0).Get(ctxT(t), "ticket", "1", vstore.WithColumns("status"))
			if err != nil || string(row["status"].Value) != "open" {
				t.Fatalf("policy %v lost a cleanly-shut-down write: %v, %v", p, row, err)
			}
		})
	}
}

// TestDurableReopenNodeCount: placement depends on the cluster size,
// so reopening a durable store with another node count would route
// reads to replicas that never held the rows. Open refuses it; a zero
// Nodes adopts the recorded count.
func TestDurableReopenNodeCount(t *testing.T) {
	noGoroutineOutlivesClose(t)
	dir := t.TempDir()
	db, err := vstore.Open(vstore.Config{Dir: dir, Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := db.Client(i%8).Put(ctxT(t), "t", fmt.Sprintf("r%d", i), vstore.Values{"c": "v"}); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	for _, n := range []int{4, 9} {
		if db2, err := vstore.Open(vstore.Config{Dir: dir, Nodes: n}); err == nil {
			db2.Close()
			t.Fatalf("8-node store reopened with Nodes: %d", n)
		}
	}
	db2, err := vstore.Open(vstore.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Nodes() != 8 {
		t.Fatalf("reopened with %d nodes, want the recorded 8", db2.Nodes())
	}
	for i := 0; i < 50; i++ {
		row, err := db2.Client(i%8).Get(ctxT(t), "t", fmt.Sprintf("r%d", i), vstore.WithColumns("c"))
		if err != nil || string(row["c"].Value) != "v" {
			t.Fatalf("r%d: %v, %v", i, row, err)
		}
	}
}

// TestDurableSchemaRecordsNodeCount: a schema written before the node
// count was recorded opens under the default size, and the next schema
// write records it.
func TestDurableSchemaRecordsNodeCount(t *testing.T) {
	noGoroutineOutlivesClose(t)
	dir := t.TempDir()
	copyTree(t, dir, "testdata/durable_pre_backend")
	db, err := vstore.Open(vstore.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("extra"); err != nil {
		t.Fatal(err)
	}
	db.Close()
	data, err := os.ReadFile(filepath.Join(dir, "SCHEMA.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Nodes int }
	if err := json.Unmarshal(data, &doc); err != nil || doc.Nodes != 4 {
		t.Fatalf("schema records Nodes %d (%v), want 4", doc.Nodes, err)
	}
	if db2, err := vstore.Open(vstore.Config{Dir: dir, Nodes: 3}); err == nil {
		db2.Close()
		t.Fatal("recorded node count not enforced")
	}
}

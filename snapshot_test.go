package vstore_test

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"vstore"
)

// TestSnapshotRoundTrip: a checkpoint is a durable store, so Open on
// its directory brings back the schema (selective view, join view,
// index) and every row without a rebuild, and maintenance keeps
// working.
func TestSnapshotRoundTrip(t *testing.T) {
	noGoroutineOutlivesClose(t)
	dir := t.TempDir()
	ctx := ctxT(t)

	// Build a cluster with a table, a selective view, a join view and
	// an index, with data in all of them.
	db := openDB(t, vstore.Config{})
	for _, tbl := range []string{"ticket", "users"} {
		if err := db.CreateTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateView(vstore.ViewDef{
		Name: "assignedto", Base: "ticket", ViewKey: "assignedto",
		Materialized: []string{"status"},
		Selection:    &vstore.Selection{Prefix: "u"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateJoinView(vstore.JoinViewDef{
		Name:  "byowner",
		Left:  vstore.JoinSide{Base: "ticket", On: "assignedto"},
		Right: vstore.JoinSide{Base: "users", On: "name"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("ticket", "status"); err != nil {
		t.Fatal(err)
	}
	c := db.Client(0)
	if err := c.Put(ctx, "ticket", "1", vstore.Values{"assignedto": "u-ada", "status": "open"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, "users", "acct-9", vstore.Values{"name": "u-ada"}); err != nil {
		t.Fatal(err)
	}
	if err := db.QuiesceViews(ctx); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveSnapshotTo(vstore.FSBackend(dir)); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// Restore into a new process-equivalent DB.
	db2, err := vstore.Open(vstore.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	c2 := db2.Client(1)
	row, err := c2.Get(ctx, "ticket", "1", vstore.WithColumns("status"))
	if err != nil || string(row["status"].Value) != "open" {
		t.Fatalf("base row lost: %v %v", row, err)
	}
	// View state restored without a rebuild.
	rows, err := c2.GetView(ctx, "assignedto", "u-ada")
	if err != nil || len(rows) != 1 || string(rows[0].Columns["status"].Value) != "open" {
		t.Fatalf("view lost: %v %v", rows, err)
	}
	// Join view restored, both sides.
	jrows, err := c2.GetView(ctx, "byowner", "u-ada")
	if err != nil || len(jrows) != 2 {
		t.Fatalf("join view lost: %v %v", jrows, err)
	}
	// Index restored.
	irows, err := c2.QueryIndex(ctx, "ticket", "status", "open")
	if err != nil || len(irows) != 1 {
		t.Fatalf("index lost: %v %v", irows, err)
	}
	// Maintenance still works post-restore.
	if err := c2.Put(ctx, "ticket", "1", vstore.Values{"assignedto": "u-bob"}); err != nil {
		t.Fatal(err)
	}
	if err := db2.QuiesceViews(ctx); err != nil {
		t.Fatal(err)
	}
	if rows, _ := c2.GetView(ctx, "assignedto", "u-ada"); len(rows) != 0 {
		t.Fatalf("post-restore maintenance broken: %v", rows)
	}
	rows, err = c2.GetView(ctx, "assignedto", "u-bob")
	if err != nil || len(rows) != 1 {
		t.Fatalf("post-restore move lost: %v %v", rows, err)
	}
	// The selection survived the round trip.
	if err := c2.Put(ctx, "ticket", "2", vstore.Values{"assignedto": "x-out", "status": "open"}); err != nil {
		t.Fatal(err)
	}
	if err := db2.QuiesceViews(ctx); err != nil {
		t.Fatal(err)
	}
	if rows, _ := c2.GetView(ctx, "assignedto", "x-out"); len(rows) != 0 {
		t.Fatalf("selection lost in snapshot: %v", rows)
	}
}

// TestSnapshotMemBackendRoundTrip: rows written through every
// coordinator come back from a checkpoint on a memory backend with
// their values, and every coordinator of the restored store takes new
// writes.
func TestSnapshotMemBackendRoundTrip(t *testing.T) {
	noGoroutineOutlivesClose(t)
	ctx := ctxT(t)
	db := openDB(t, vstore.Config{})
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := db.Client(i%db.Nodes()).Put(ctx, "t", fmt.Sprintf("r%d", i), vstore.Values{"c": "v"}); err != nil {
			t.Fatal(err)
		}
	}
	b := vstore.MemBackend()
	if err := db.SaveSnapshotTo(b); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2 := openDB(t, vstore.Config{Backend: b})
	for i := 0; i < 20; i++ {
		row, err := db2.Client((i+1)%db2.Nodes()).Get(ctx, "t", fmt.Sprintf("r%d", i), vstore.WithColumns("c"))
		if err != nil || string(row["c"].Value) != "v" {
			t.Fatalf("r%d after restore: %v, %v", i, row, err)
		}
	}
	for i := 0; i < db2.Nodes(); i++ {
		key := fmt.Sprintf("new%d", i)
		if err := db2.Client(i).Put(ctx, "t", key, vstore.Values{"c": "w"}); err != nil {
			t.Fatal(err)
		}
		row, err := db2.Client((i+1)%db2.Nodes()).Get(ctx, "t", key, vstore.WithColumns("c"))
		if err != nil || string(row["c"].Value) != "w" {
			t.Fatalf("%s written through coordinator %d after restore: %v, %v", key, i, row, err)
		}
	}
}

func TestSnapshotValidation(t *testing.T) {
	noGoroutineOutlivesClose(t)
	dir := t.TempDir()
	db := openDB(t, vstore.Config{Nodes: 4})
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := db.Client(0).Put(ctxT(t), "t", "k", vstore.Values{"a": "b"}); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveSnapshotTo(vstore.FSBackend(dir)); err != nil {
		t.Fatal(err)
	}
	// A save never merges into an existing store: neither one with a
	// schema nor one holding only a node namespace.
	if err := db.SaveSnapshotTo(vstore.FSBackend(dir)); err == nil {
		t.Fatal("save over an existing checkpoint accepted")
	}
	partial := vstore.MemBackend()
	if err := partial.WriteFileAtomic("node-2/MANIFEST.json", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveSnapshotTo(partial); err == nil {
		t.Fatal("save over a node namespace accepted")
	}
	// Shape mismatch rejected (placement is shape-dependent).
	if db2, err := vstore.Open(vstore.Config{Dir: dir, Nodes: 3}); err == nil {
		db2.Close()
		t.Fatal("node-count mismatch accepted")
	}
	// Corrupt schema rejected.
	if err := os.WriteFile(filepath.Join(dir, "SCHEMA.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if db2, err := vstore.Open(vstore.Config{Dir: dir}); err == nil {
		db2.Close()
		t.Fatal("corrupt schema accepted")
	}
}

var errInjected = errors.New("injected atomic-write failure")

// failAtomic passes the first ok WriteFileAtomic calls through to the
// embedded backend and fails every later one.
type failAtomic struct {
	vstore.Backend
	ok int
}

func (b *failAtomic) WriteFileAtomic(name string, data []byte) error {
	if b.ok == 0 {
		return errInjected
	}
	b.ok--
	return b.Backend.WriteFileAtomic(name, data)
}

// TestSnapshotSaveFailsWhole: a save that fails at any of its atomic
// writes reports the failure and leaves no SCHEMA.json, so the target
// opens as an empty store instead of a half-written checkpoint.
func TestSnapshotSaveFailsWhole(t *testing.T) {
	noGoroutineOutlivesClose(t)
	db := openTickets(t, vstore.Config{})
	c := db.Client(0)
	for _, k := range []string{"1", "2", "3"} {
		if err := c.Put(ctxT(t), "ticket", k, vstore.Values{"assignedto": "ada", "status": "open"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.QuiesceViews(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	full := &failAtomic{Backend: vstore.MemBackend(), ok: math.MaxInt}
	if err := db.SaveSnapshotTo(full); err != nil {
		t.Fatal(err)
	}
	writes := math.MaxInt - full.ok
	t.Logf("a full save makes %d atomic writes", writes)
	for k := 0; k < writes; k++ {
		mem := vstore.MemBackend()
		if err := db.SaveSnapshotTo(&failAtomic{Backend: mem, ok: k}); !errors.Is(err, errInjected) {
			t.Fatalf("write %d of %d failing: save returned %v", k+1, writes, err)
		}
		if _, err := mem.ReadFile("SCHEMA.json"); err == nil {
			t.Fatalf("write %d of %d failing: SCHEMA.json written", k+1, writes)
		}
		db2, err := vstore.Open(vstore.Config{Backend: mem})
		if err != nil {
			t.Fatalf("write %d of %d failing: %v", k+1, writes, err)
		}
		tables := db2.Tables()
		db2.Close()
		if len(tables) != 0 {
			t.Fatalf("write %d of %d failing: half-saved target lists tables %v", k+1, writes, tables)
		}
	}
}

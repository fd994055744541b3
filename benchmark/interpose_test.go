package main

import (
	"bytes"
	"context"
	"testing"
	"time"

	"vstore"
	"vstore/internal/clock"
	"vstore/internal/physical"
	"vstore/internal/transport"
)

// The coordinator type-asserts its fabric for transport.SyncCaller; a
// wrapper that loses the method changes the program under test. With
// the fast path taken, every read is one full-row call plus one digest
// call per other replica, all of them counted by both the recording
// transport and the nodes themselves.
func TestRecordingTransportKeepsTheSyncPath(t *testing.T) {
	var tr transport.Transport = newRecTransport()
	if _, ok := tr.(transport.SyncCaller); !ok {
		t.Fatal("recTransport does not implement transport.SyncCaller")
	}
	ctx := context.Background()
	sp := findSpec("view_read")
	s, err := openStack(sp, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	ds := newDataset(512)
	if err := s.load(ctx, ds); err != nil {
		t.Fatal(err)
	}
	var tl tally
	sc, err := s.countWindow(ctx, sp, newOracle(ds), newClients(nil, 1)[0], 100*time.Millisecond, &tl)
	if err != nil || tl.failed != 0 || sc.ops == 0 {
		t.Fatalf("count window: %+v, tally %+v, err %v", sc, tl, err)
	}
	var recorded int64
	for k := 0; k < numKinds; k++ {
		recorded += sc.calls.kind(k)
	}
	if recorded != sc.nodeReqs {
		t.Errorf("transport recorded %d calls, nodes handled %d", recorded, sc.nodeReqs)
	}
	// N = 3: one GetReq and two GetDigestReq per coordinator read.
	if got := sc.calls.kind(kindGet); got != int64(sc.ops) {
		t.Errorf("%d full reads for %d operations", got, sc.ops)
	}
	if got := sc.calls.kind(kindGetDigest); got != 2*int64(sc.ops) {
		t.Errorf("%d digest reads for %d operations", got, sc.ops)
	}
	if sc.coordGets != int64(sc.ops) || sc.calls.view() != recorded {
		t.Errorf("coordinator rounds %d, view-table calls %d of %d", sc.coordGets, sc.calls.view(), recorded)
	}
}

// The counting backend must be invisible to the durability layer:
// namespacing, listing and the not-exist error pass through, and a
// store written under one wrapper reopens under another.
func TestCountingBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cb := newCountingBackend(vstore.FSBackend(dir))

	sub := physical.Sub(cb, "node-0")
	if _, err := sub.ReadFile("missing"); !physical.IsNotExist(err) {
		t.Errorf("ReadFile(missing) = %v, want a not-exist error", err)
	}
	if names, err := sub.List("wal"); err != nil || len(names) != 0 {
		t.Errorf("List(missing dir) = %v, %v", names, err)
	}
	if err := sub.WriteFileAtomic("dir/file", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if names, _ := cb.List("node-0/dir"); len(names) != 1 || names[0] != "file" {
		t.Errorf("List(node-0/dir) = %v", names)
	}
	if err := cb.Remove("node-0/dir/file"); err != nil {
		t.Fatal(err)
	}
	if c := cb.snapshot(); c[cAtomics] != 1 || c[cAtomicBytes] != 3 || c[cCheckpoints] != 0 {
		t.Errorf("counts after one atomic write: %+v", c)
	}

	ctx := context.Background()
	ds := newDataset(128)
	cfg := vstore.Config{Backend: cb}
	db, _, err := setup(ctx, cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	m := newOracle(ds)
	c := newClients(db, 1)[0]
	for i := 0; i < 20; i++ {
		if _, _, ok := c.do(ctx, m, opPut, own(c, i)); !ok {
			t.Fatal("put failed")
		}
	}
	if err := db.QuiesceViews(ctx); err != nil {
		t.Fatal(err)
	}
	db.Close()
	wrote := cb.snapshot()
	if wrote[cAppends] == 0 || wrote[cAppendBytes] == 0 || wrote[cSyncs] == 0 {
		t.Errorf("a durable load counted nothing: %+v", wrote)
	}

	reopened := newCountingBackend(vstore.FSBackend(dir))
	db, err = vstore.Open(vstore.Config{Backend: reopened})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.RecoveryStats().Nodes != 4 {
		t.Errorf("recovered %d nodes, want 4", db.RecoveryStats().Nodes)
	}
	if err := db.QuiesceViews(ctx); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	if got := m.verify(ctx, db.Client(0), viewName, &log); got.failed != 0 {
		t.Errorf("after reopen: %+v\n%s", got, log.String())
	}
}

func TestCopyTreeCopiesEveryFile(t *testing.T) {
	src, dst := vstore.FSBackend(t.TempDir()), vstore.FSBackend(t.TempDir())
	files := map[string]string{"a": "1", "d/b": "22", "d/e/c": "333"}
	for name, data := range files {
		if err := src.WriteFileAtomic(name, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	n, err := copyTree(src, dst, "")
	if err != nil || n != 6 {
		t.Fatalf("copyTree = %d, %v; want 6 bytes", n, err)
	}
	for name, data := range files {
		if got, err := dst.ReadFile(name); err != nil || string(got) != data {
			t.Errorf("%s: %q, %v", name, got, err)
		}
	}
}

func TestTracerSpans(t *testing.T) {
	tr := newTracer()
	top := tr.time("a", 0, -1, func() { clock.Wall.Sleep(time.Millisecond) })
	child := tr.add("b", 0, top, clock.Wall.Now(), 5*time.Microsecond)
	if top != 0 || child != 1 || tr.spans[1].Parent != 0 {
		t.Fatalf("spans: %+v", tr.spans)
	}
	ns := tr.byName()
	if ns["a"].mean() < 1e6 || ns["b"].mean() != 5e3 {
		t.Errorf("means: %v", ns)
	}
}

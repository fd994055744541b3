package core_test

import (
	"slices"
	"sync/atomic"
	"testing"

	"vstore/internal/core"
	"vstore/internal/transport"
)

// heldWrite is an asynchronous fabric that, while armed, holds a write
// to one table in flight: the first replica put's send blocks until the
// test releases it, so the coordinator can neither collect the quorum
// nor acknowledge the write in the meantime. It also counts the
// requests that are a GetVersions of the table's view-key column: named
// reads asking for nothing else.
type heldWrite struct {
	transport.Transport
	table, viewKey string
	armed          atomic.Bool
	sent, release  chan struct{}
	preReads       atomic.Int64
}

func newHeldWrite(table, viewKey string) *heldWrite {
	return &heldWrite{Transport: transport.NewDirect(), table: table, viewKey: viewKey,
		sent: make(chan struct{}), release: make(chan struct{})}
}

func (f *heldWrite) Call(from, to transport.NodeID, req transport.Request) <-chan transport.Result {
	switch r := req.(type) {
	case transport.GetReq:
		if r.Table == f.table && slices.Equal(r.Columns, []string{f.viewKey}) {
			f.preReads.Add(1)
		}
	case transport.PutReq:
		if r.Table == f.table && f.armed.CompareAndSwap(true, false) {
			f.sent <- struct{}{}
			<-f.release
		}
	}
	return f.Transport.Call(from, to, req)
}

// during runs a Put of ticket 1 and, while its write is held in flight,
// change; it returns once the Put has returned and its propagations
// have ended.
func during(t *testing.T, h *harness, fab *heldWrite, change func()) {
	t.Helper()
	fab.armed.Store(true)
	done := make(chan error, 1)
	go func() { done <- h.mgrs[0].Put(ctxT(t), "ticket", "1", assignRliu, 2, nil) }()
	<-fab.sent
	change()
	close(fab.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	h.quiesce(t)
}

// A view defined while a write is in flight misses the write's tasks:
// the catalog fence gives it exactly one late task, whose pre-read is
// one GetVersions round, and the write reaches the view.
func TestViewDefinedDuringWriteGetsLateTask(t *testing.T) {
	fab := newHeldWrite("ticket", "assignedto")
	h := newHarnessOn(t, core.Options{}, 4, fab)
	def := ticketDef()
	for _, table := range []string{def.Base, def.Name} {
		if err := h.c.CreateTable(table); err != nil {
			t.Fatal(err)
		}
	}
	during(t, h, fab, func() {
		if err := h.reg.Define(def); err != nil {
			t.Fatal(err)
		}
	})
	if n := h.mgrs[0].Stats().LateTasks.Load(); n != 1 {
		t.Fatalf("late tasks = %d, want 1", n)
	}
	if n := fab.preReads.Load(); n != 3 {
		t.Fatalf("GetVersions requests = %d, want one round to the N=3 replicas", n)
	}
	if rows := getView(t, h.mgrs[1], def.Name, "rliu"); len(rows) != 1 || rows[0].BaseKey != "1" {
		t.Fatalf("view under rliu = %+v, want ticket 1", rows)
	}
}

// With the catalog unchanged across the write, the fence builds nothing
// and asks nothing: no late task, no GetVersions request.
func TestUnchangedCatalogSchedulesNoLateTask(t *testing.T) {
	fab := newHeldWrite("ticket", "assignedto")
	h := newHarnessOn(t, core.Options{}, 4, fab)
	mustDefine(t, h, ticketDef())
	during(t, h, fab, func() {})
	if n := h.mgrs[0].Stats().LateTasks.Load(); n != 0 {
		t.Fatalf("late tasks = %d, want 0", n)
	}
	if n := fab.preReads.Load(); n != 0 {
		t.Fatalf("GetVersions requests = %d, want none", n)
	}
	if rows := getView(t, h.mgrs[1], "assignedto", "rliu"); len(rows) != 1 || rows[0].BaseKey != "1" {
		t.Fatalf("view under rliu = %+v, want ticket 1", rows)
	}
}

// A view dropped and defined again under the same name while a write is
// in flight is a new definition: the write's task for the old one ends
// with the drop, and the fence gives the new one a late task of its own.
func TestViewRedefinedDuringWriteGetsLateTask(t *testing.T) {
	fab := newHeldWrite("ticket", "assignedto")
	h := newHarnessOn(t, core.Options{}, 4, fab)
	def := ticketDef()
	mustDefine(t, h, def)
	old, _ := h.reg.View(def.Name)
	during(t, h, fab, func() {
		if err := h.reg.Drop(def.Name); err != nil {
			t.Fatal(err)
		}
		if err := h.reg.Define(def); err != nil {
			t.Fatal(err)
		}
	})
	if now, _ := h.reg.View(def.Name); now == old {
		t.Fatal("the re-defined view kept its old definition")
	}
	if n := h.mgrs[0].Stats().LateTasks.Load(); n != 1 {
		t.Fatalf("late tasks = %d, want 1 for the new definition", n)
	}
	if rows := getView(t, h.mgrs[1], def.Name, "rliu"); len(rows) != 1 || rows[0].BaseKey != "1" {
		t.Fatalf("view under rliu = %+v, want ticket 1", rows)
	}
	if got := h.mgrs[0].Stats().Propagations.Load(); got != 1 {
		t.Fatalf("propagations = %d, want the late task's alone", got)
	}
}

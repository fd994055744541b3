package vstore_test

import (
	"testing"
	"time"

	"vstore"
)

func TestOpenRejectsNegativeSizes(t *testing.T) {
	if _, err := vstore.Open(vstore.Config{Nodes: -1}); err == nil {
		t.Fatal("negative node count accepted")
	}
	if _, err := vstore.Open(vstore.Config{ReplicationFactor: -2}); err == nil {
		t.Fatal("negative replication accepted")
	}
}

func TestClientNodeBinding(t *testing.T) {
	db := openDB(t, vstore.Config{Nodes: 4})
	if db.Client(5).Node() != 1 {
		t.Fatalf("Client(5).Node() = %d, want 1 (wraps)", db.Client(5).Node())
	}
	if db.Client(-1).Node() != 3 {
		t.Fatalf("Client(-1).Node() = %d, want 3", db.Client(-1).Node())
	}
}

func TestQuorumOptionZeroKeepsDefaults(t *testing.T) {
	db := openTickets(t, vstore.Config{WriteQuorum: 3, ReadQuorum: 3})
	c := db.Client(0)
	if err := c.Put(ctxT(t), "ticket", "k", vstore.Values{"status": "v"}, vstore.WithWriteQuorum(0)); err != nil {
		t.Fatal(err)
	}
	row, err := c.Get(ctxT(t), "ticket", "k", vstore.WithColumns("status"), vstore.WithReadQuorum(0))
	if err != nil || string(row["status"].Value) != "v" {
		t.Fatalf("row=%v err=%v", row, err)
	}
}

func TestTablesListing(t *testing.T) {
	db := openTickets(t, vstore.Config{})
	tables := db.Tables()
	if len(tables) != 2 || tables[0] != "assignedto" || tables[1] != "ticket" {
		t.Fatalf("Tables = %v", tables)
	}
}

func TestDeleteEmptyColumnsRejected(t *testing.T) {
	db := openTickets(t, vstore.Config{})
	if err := db.Client(0).Delete(ctxT(t), "ticket", "k"); err == nil {
		t.Fatal("delete with no columns accepted")
	}
}

func TestSessionOfSessionIndependent(t *testing.T) {
	noGoroutineOutlivesClose(t)
	db := openTickets(t, vstore.Config{})
	c := db.Client(0)
	s1 := c.Session()
	s2 := c.Session()
	if s1 == s2 {
		t.Fatal("sessions must be distinct clients")
	}
	s1.EndSession()
	s2.EndSession()
	c.EndSession() // no session: must be a no-op, not a panic
}

func TestViewRowTimestampsExposed(t *testing.T) {
	db := openTickets(t, vstore.Config{})
	c := db.Client(0)
	before := time.Now().UnixMicro()
	if err := c.Put(ctxT(t), "ticket", "1", vstore.Values{"assignedto": "a", "status": "open"}); err != nil {
		t.Fatal(err)
	}
	if err := db.QuiesceViews(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	rows, err := c.GetView(ctxT(t), "assignedto", "a")
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows=%v err=%v", rows, err)
	}
	ts := rows[0].Columns["status"].Timestamp
	if ts < before || ts > time.Now().UnixMicro() {
		t.Fatalf("view cell timestamp %d outside write window", ts)
	}
}

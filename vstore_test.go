package vstore_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"vstore"
)

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func openDB(t *testing.T, cfg vstore.Config) *vstore.DB {
	t.Helper()
	db, err := vstore.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

// openTickets builds the paper's running example: a ticket table with
// an assignedto view and a status secondary index.
func openTickets(t *testing.T, cfg vstore.Config) *vstore.DB {
	t.Helper()
	db := openDB(t, cfg)
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

func TestQuickstartFlow(t *testing.T) {
	db := openTickets(t, vstore.Config{})
	c := db.Client(0)
	if err := c.Put(ctxT(t), "ticket", "1", vstore.Values{"assignedto": "rliu", "status": "open", "description": "help"}); err != nil {
		t.Fatal(err)
	}
	if err := db.QuiesceViews(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	// Primary-key read.
	row, err := c.Get(ctxT(t), "ticket", "1", vstore.WithColumns("status", "description"))
	if err != nil || string(row["status"].Value) != "open" {
		t.Fatalf("Get = %v, %v", row, err)
	}
	// Secondary-key read through the view, from a different node.
	rows, err := db.Client(2).GetView(ctxT(t), "assignedto", "rliu")
	if err != nil || len(rows) != 1 {
		t.Fatalf("GetView = %v, %v", rows, err)
	}
	if rows[0].BaseKey != "1" || string(rows[0].Columns["status"].Value) != "open" {
		t.Fatalf("view row = %+v", rows[0])
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	db := openDB(t, vstore.Config{})
	if db.Nodes() != 4 || db.ReplicationFactor() != 3 {
		t.Fatalf("defaults: %d nodes, N=%d; want 4 and 3", db.Nodes(), db.ReplicationFactor())
	}
}

func TestAutomaticTimestampsAreMonotonic(t *testing.T) {
	db := openTickets(t, vstore.Config{})
	c := db.Client(0)
	var last int64
	for i := 0; i < 20; i++ {
		if err := c.Put(ctxT(t), "ticket", "k", vstore.Values{"status": fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
		row, err := c.Get(ctxT(t), "ticket", "k", vstore.WithColumns("status"))
		if err != nil {
			t.Fatal(err)
		}
		cell := row["status"]
		if string(cell.Value) != fmt.Sprint(i) {
			t.Fatalf("iteration %d read %q", i, cell.Value)
		}
		if cell.Timestamp <= last {
			t.Fatalf("timestamps not monotonic: %d after %d", cell.Timestamp, last)
		}
		last = cell.Timestamp
	}
}

func TestExplicitTimestampsLWW(t *testing.T) {
	db := openTickets(t, vstore.Config{})
	c := db.Client(0)
	if err := c.PutUpdates(ctxT(t), "ticket", "k", []vstore.Update{{Column: "status", Value: []byte("new"), Timestamp: 100}}); err != nil {
		t.Fatal(err)
	}
	if err := c.PutUpdates(ctxT(t), "ticket", "k", []vstore.Update{{Column: "status", Value: []byte("stale"), Timestamp: 50}}); err != nil {
		t.Fatal(err)
	}
	row, _ := c.Get(ctxT(t), "ticket", "k", vstore.WithColumns("status"))
	if string(row["status"].Value) != "new" {
		t.Fatalf("stale write won: %v", row)
	}
}

func TestDeleteHidesCell(t *testing.T) {
	db := openTickets(t, vstore.Config{})
	c := db.Client(1)
	if err := c.Put(ctxT(t), "ticket", "k", vstore.Values{"status": "open"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(ctxT(t), "ticket", "k", "status"); err != nil {
		t.Fatal(err)
	}
	row, err := c.Get(ctxT(t), "ticket", "k", vstore.WithColumns("status"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := row["status"]; ok {
		t.Fatalf("deleted cell visible: %v", row)
	}
}

func TestViewTracksReassignments(t *testing.T) {
	db := openTickets(t, vstore.Config{})
	c := db.Client(0)
	if err := c.Put(ctxT(t), "ticket", "7", vstore.Values{"assignedto": "alice", "status": "open"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctxT(t), "ticket", "7", vstore.Values{"assignedto": "bob"}); err != nil {
		t.Fatal(err)
	}
	if err := db.QuiesceViews(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	if rows, _ := c.GetView(ctxT(t), "assignedto", "alice"); len(rows) != 0 {
		t.Fatalf("alice still sees the ticket: %v", rows)
	}
	rows, _ := c.GetView(ctxT(t), "assignedto", "bob")
	if len(rows) != 1 || string(rows[0].Columns["status"].Value) != "open" {
		t.Fatalf("bob rows = %v", rows)
	}
}

func TestSecondaryIndexEndToEnd(t *testing.T) {
	db := openTickets(t, vstore.Config{})
	if err := db.CreateIndex("ticket", "status"); err != nil {
		t.Fatal(err)
	}
	c := db.Client(0)
	for i := 0; i < 12; i++ {
		status := "open"
		if i%3 == 0 {
			status = "resolved"
		}
		if err := c.Put(ctxT(t), "ticket", fmt.Sprintf("t%02d", i), vstore.Values{"status": status, "owner": fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := db.Client(3).QueryIndex(ctxT(t), "ticket", "status", "resolved", vstore.WithColumns("owner"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("index query = %d rows, want 4: %v", len(rows), rows)
	}
	for _, r := range rows {
		var i int
		fmt.Sscanf(r.Key, "t%d", &i)
		if i%3 != 0 || string(r.Columns["owner"].Value) != fmt.Sprint(i) {
			t.Fatalf("bad match %+v", r)
		}
	}
}

func TestSessionReadYourWrites(t *testing.T) {
	noGoroutineOutlivesClose(t)
	// Delay propagation so a plain read misses the write but a session
	// read blocks for it.
	db := openTickets(t, vstore.Config{
		Views: vstore.ViewOptions{
			PropagationDelay: func() time.Duration { return 50 * time.Millisecond },
		},
	})
	sc := db.Client(0).Session()
	defer sc.EndSession()
	if err := sc.Put(ctxT(t), "ticket", "9", vstore.Values{"assignedto": "carol", "status": "open"}); err != nil {
		t.Fatal(err)
	}
	// A non-session client racing right after the Put usually misses
	// the row (propagation sleeps 50ms); the session client must not.
	start := time.Now()
	rows, err := sc.GetView(ctxT(t), "assignedto", "carol")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].BaseKey != "9" {
		t.Fatalf("session read missed own write: %v", rows)
	}
	if time.Since(start) < 30*time.Millisecond {
		t.Fatalf("session read did not block for propagation (%v)", time.Since(start))
	}
}

func TestSessionScopedToOwnWrites(t *testing.T) {
	noGoroutineOutlivesClose(t)
	db := openTickets(t, vstore.Config{})
	s1 := db.Client(0).Session()
	defer s1.EndSession()
	s2 := db.Client(0).Session()
	defer s2.EndSession()
	if err := s1.Put(ctxT(t), "ticket", "1", vstore.Values{"assignedto": "x"}); err != nil {
		t.Fatal(err)
	}
	// s2 never wrote: its view read must not block on s1's writes.
	start := time.Now()
	if _, err := s2.GetView(ctxT(t), "assignedto", "x"); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("foreign session blocked on another session's writes")
	}
}

// QuiesceViews parks until the propagations in flight have ended, or
// until its context ends; Close ends a propagation still held back and
// leaves no goroutine behind.
func TestQuiesceViewsThenClose(t *testing.T) {
	noGoroutineOutlivesClose(t)
	var mu sync.Mutex
	delay := 50 * time.Millisecond
	db, err := vstore.Open(vstore.Config{Views: vstore.ViewOptions{PropagationDelay: func() time.Duration {
		mu.Lock()
		defer mu.Unlock()
		d := delay
		delay = time.Hour // every later propagation is held
		return d
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("ticket"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView(vstore.ViewDef{Name: "assignedto", Base: "ticket", ViewKey: "assignedto", Materialized: []string{"status"}}); err != nil {
		t.Fatal(err)
	}
	c := db.Client(0)
	if err := c.Put(ctxT(t), "ticket", "1", vstore.Values{"assignedto": "alice"}); err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(ctxT(t), 10*time.Millisecond)
	defer cancel()
	if err := db.QuiesceViews(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("QuiesceViews under a 10ms budget with a 50ms propagation = %v, want its deadline", err)
	}
	if err := db.QuiesceViews(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	if n := db.Stats().Views.Pending; n != 0 {
		t.Fatalf("%d propagations pending after QuiesceViews", n)
	}
	if rows, err := c.GetView(ctxT(t), "assignedto", "alice"); err != nil || len(rows) != 1 {
		t.Fatalf("view after QuiesceViews = %v, %v", rows, err)
	}
	if err := c.Put(ctxT(t), "ticket", "2", vstore.Values{"assignedto": "bob"}); err != nil {
		t.Fatal(err)
	}
	if n := db.Stats().Views.Pending; n != 1 {
		t.Fatalf("%d propagations pending, want the held one", n)
	}
	db.Close()
}

func TestCreateViewBackfillsExistingData(t *testing.T) {
	db := openDB(t, vstore.Config{})
	if err := db.CreateTable("users"); err != nil {
		t.Fatal(err)
	}
	c := db.Client(0)
	for i := 0; i < 10; i++ {
		if err := c.Put(ctxT(t), "users", fmt.Sprintf("u%d", i), vstore.Values{"city": "waterloo", "name": fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateView(vstore.ViewDef{Name: "bycity", Base: "users", ViewKey: "city", Materialized: []string{"name"}}); err != nil {
		t.Fatal(err)
	}
	rows, err := c.GetView(ctxT(t), "bycity", "waterloo")
	if err != nil || len(rows) != 10 {
		t.Fatalf("backfilled view rows = %d, %v", len(rows), err)
	}
}

func TestSchemaValidation(t *testing.T) {
	db := openTickets(t, vstore.Config{})
	c := db.Client(0)
	if err := c.Put(ctxT(t), "ghost", "k", vstore.Values{"a": "b"}); err == nil {
		t.Fatal("write to unknown table accepted")
	}
	if _, err := c.Get(ctxT(t), "ghost", "k", vstore.WithColumns("a")); err == nil {
		t.Fatal("read of unknown table accepted")
	}
	if err := c.Put(ctxT(t), "assignedto", "k", vstore.Values{"a": "b"}); err == nil {
		t.Fatal("write to view accepted")
	}
	if _, err := c.Get(ctxT(t), "assignedto", "k", vstore.WithColumns("a")); err == nil {
		t.Fatal("base-style read of view accepted")
	}
	if err := db.CreateTable("ticket"); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if err := db.CreateTable("assignedto"); err == nil {
		t.Fatal("table shadowing view accepted")
	}
	if err := db.CreateView(vstore.ViewDef{Name: "v2", Base: "missing", ViewKey: "k"}); err == nil {
		t.Fatal("view on unknown base accepted")
	}
	if err := db.CreateView(vstore.ViewDef{Name: "ticket", Base: "ticket", ViewKey: "k"}); err == nil {
		t.Fatal("view shadowing table accepted")
	}
	if err := db.CreateIndex("assignedto", "x"); err == nil {
		t.Fatal("index on view accepted")
	}
	if _, err := c.Get(ctxT(t), "ticket", "k"); err == nil {
		t.Fatal("Get without columns accepted")
	}
	if err := c.PutUpdates(ctxT(t), "ticket", "k", nil); err == nil {
		t.Fatal("empty update accepted")
	}
}

func TestDropView(t *testing.T) {
	db := openTickets(t, vstore.Config{})
	if got := db.Views(); len(got) != 1 || got[0] != "assignedto" {
		t.Fatalf("Views = %v", got)
	}
	if err := db.DropView("assignedto"); err != nil {
		t.Fatal(err)
	}
	if len(db.Views()) != 0 {
		t.Fatal("view still listed after drop")
	}
	// Base writes no longer propagate (and must not error).
	c := db.Client(0)
	if err := c.Put(ctxT(t), "ticket", "1", vstore.Values{"assignedto": "x"}); err != nil {
		t.Fatal(err)
	}
}

func TestClientQuorumOverrides(t *testing.T) {
	db := openTickets(t, vstore.Config{})
	// W=1 R=4 (clamped to 3 replicas) must still read-latest.
	c := db.Client(0)
	if err := c.Put(ctxT(t), "ticket", "k", vstore.Values{"status": "v"}, vstore.WithWriteQuorum(1)); err != nil {
		t.Fatal(err)
	}
	row, err := c.Get(ctxT(t), "ticket", "k", vstore.WithColumns("status"), vstore.WithReadQuorum(4))
	if err != nil || string(row["status"].Value) != "v" {
		t.Fatalf("row=%v err=%v", row, err)
	}
}

func TestConcurrentClients(t *testing.T) {
	db := openTickets(t, vstore.Config{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := db.Client(w)
			for i := 0; i < 40; i++ {
				key := fmt.Sprintf("t%d", i%10)
				if err := c.Put(ctxT(t), "ticket", key, vstore.Values{
					"assignedto": fmt.Sprintf("user-%d", (i+w)%4),
					"status":     "open",
				}); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if i%5 == 0 {
					c.GetView(ctxT(t), "assignedto", fmt.Sprintf("user-%d", i%4))
				}
			}
		}(w)
	}
	wg.Wait()
	if err := db.QuiesceViews(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Views.PropagationsDropped != 0 {
		t.Fatalf("dropped propagations under concurrency: %+v", st)
	}
	// Every ticket appears exactly once across all view keys.
	seen := map[string]int{}
	for u := 0; u < 4; u++ {
		rows, err := db.Client(0).GetView(ctxT(t), "assignedto", fmt.Sprintf("user-%d", u))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			seen[r.BaseKey]++
		}
	}
	if len(seen) != 10 {
		t.Fatalf("view covers %d tickets, want 10: %v", len(seen), seen)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("ticket %s visible %d times", k, n)
		}
	}
}

func TestFailureAndRecoveryEndToEnd(t *testing.T) {
	db := openTickets(t, vstore.Config{})
	c := db.Client(0)
	db.SetNodeDown(3, true)
	for i := 0; i < 20; i++ {
		if err := c.Put(ctxT(t), "ticket", fmt.Sprintf("t%d", i), vstore.Values{"assignedto": "amy", "status": "open"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.QuiesceViews(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	db.SetNodeDown(3, false)
	db.RunAntiEntropy()
	// The recovered node can serve reads coordinated locally with R=1.
	rows, err := db.Client(3).GetView(ctxT(t), "assignedto", "amy", vstore.WithReadQuorum(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("recovered node sees %d rows, want 20", len(rows))
	}
}

func TestSimulatedNetworkEndToEnd(t *testing.T) {
	db := openTickets(t, vstore.Config{
		Network: &vstore.NetworkSim{Latency: 300 * time.Microsecond, Jitter: 100 * time.Microsecond},
	})
	c := db.Client(0)
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
}

func TestStatsAccumulate(t *testing.T) {
	db := openTickets(t, vstore.Config{})
	c := db.Client(0)
	for i := 0; i < 5; i++ {
		if err := c.Put(ctxT(t), "ticket", fmt.Sprint(i), vstore.Values{"assignedto": "a"}); err != nil {
			t.Fatal(err)
		}
	}
	db.QuiesceViews(ctxT(t))
	c.GetView(ctxT(t), "assignedto", "a")
	st := db.Stats()
	if st.Views.Propagations < 5 || st.Views.Reads < 1 {
		t.Fatalf("stats = %+v", st)
	}
}

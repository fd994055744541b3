package vstore_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"vstore"
	"vstore/internal/clock"
)

// backfillKeys is the population size for online-backfill tests.
// MV_BACKFILL_KEYS overrides it (set 1048576 for the paper-scale
// million-key run; the default keeps `go test` fast).
func backfillKeys() int {
	if s := os.Getenv("MV_BACKFILL_KEYS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 2000
}

func populateTickets(t *testing.T, db *vstore.DB, n int) {
	t.Helper()
	// No deadline: the million-key run outlives ctxT's budget, and every
	// Put is individually bounded by the cluster request timeout.
	ctx := context.Background()
	for i := 0; i < n; i++ {
		c := db.Client(i % db.Nodes())
		err := c.Put(ctx, "ticket", fmt.Sprintf("t%06d", i), vstore.Values{
			"assignedto": fmt.Sprintf("user%02d", i%17),
			"status":     fmt.Sprintf("s%d", i%3),
		})
		if err != nil {
			t.Fatalf("populate %d: %v", i, err)
		}
	}
}

// TestCreateViewOnPopulatedTable is the headline online-backfill flow:
// define a view after the base table already holds data, and require
// the backfilled view to be cell-identical to a from-birth view of the
// same definition.
func TestCreateViewOnPopulatedTable(t *testing.T) {
	db := openDB(t, vstore.Config{})
	if err := db.CreateTable("ticket"); err != nil {
		t.Fatal(err)
	}
	// Control: a view that exists from birth and sees every write.
	if err := db.CreateView(vstore.ViewDef{
		Name: "frombirth", Base: "ticket",
		ViewKey: "assignedto", Materialized: []string{"status"},
	}); err != nil {
		t.Fatal(err)
	}
	n := backfillKeys()
	populateTickets(t, db, n)

	// The backfilled view: defined only after the table is populated.
	if err := db.CreateView(vstore.ViewDef{
		Name: "backfilled", Base: "ticket",
		ViewKey: "assignedto", Materialized: []string{"status"},
	}); err != nil {
		t.Fatal(err)
	}
	if st, err := db.ViewState("backfilled"); err != nil || st != vstore.ViewLive {
		t.Fatalf("state after CreateView = %q, %v; want live", st, err)
	}
	if err := db.QuiesceViews(ctxT(t)); err != nil {
		t.Fatal(err)
	}

	c := db.Client(0)
	total := 0
	for u := 0; u < 17; u++ {
		user := fmt.Sprintf("user%02d", u)
		want, err := c.GetView(ctxT(t), "frombirth", user)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.GetView(ctxT(t), "backfilled", user)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("user %s: backfilled has %d rows, from-birth %d", user, len(got), len(want))
		}
		byKey := map[string]vstore.ViewRow{}
		for _, r := range want {
			byKey[r.BaseKey] = r
		}
		for _, r := range got {
			w, ok := byKey[r.BaseKey]
			if !ok {
				t.Fatalf("user %s: backfilled row %s absent from from-birth view", user, r.BaseKey)
			}
			for col, cell := range r.Columns {
				wc, ok := w.Columns[col]
				if !ok || string(wc.Value) != string(cell.Value) {
					t.Fatalf("user %s row %s col %s: backfilled %q vs from-birth %q",
						user, r.BaseKey, col, cell.Value, wc.Value)
				}
			}
		}
		total += len(got)
	}
	if total != n {
		t.Fatalf("backfilled view holds %d rows across all keys, want %d", total, n)
	}
}

// TestBackfillDoesNotBlockWrites: while a view is Backfilling, base
// Puts must keep succeeding, and writes landed during the scan must
// end up in the view.
func TestBackfillDoesNotBlockWrites(t *testing.T) {
	db := openDB(t, vstore.Config{Views: vstore.ViewOptions{
		BackfillBatchSize: 16,
		BackfillThrottle:  5 * time.Millisecond,
	}})
	if err := db.CreateTable("ticket"); err != nil {
		t.Fatal(err)
	}
	populateTickets(t, db, 400)

	if err := db.CreateViewAsync(vstore.ViewDef{
		Name: "assignedto", Base: "ticket",
		ViewKey: "assignedto", Materialized: []string{"status"},
	}); err != nil {
		t.Fatal(err)
	}
	if st, err := db.ViewState("assignedto"); err != nil || st != vstore.ViewBackfilling {
		t.Fatalf("state right after async create = %q, %v; want backfilling", st, err)
	}

	// Race live writes against the scan: a fresh key and an overwrite
	// of an existing key, repeatedly, while checking the Puts stay fast.
	c := db.Client(1)
	raced := 0
	for i := 0; i < 200; i++ {
		if st, _ := db.ViewState("assignedto"); st != vstore.ViewBackfilling {
			break
		}
		start := time.Now()
		if err := c.Put(ctxT(t), "ticket", fmt.Sprintf("live%04d", i), vstore.Values{
			"assignedto": "racer", "status": "open",
		}); err != nil {
			t.Fatalf("live Put during backfill: %v", err)
		}
		if err := c.Put(ctxT(t), "ticket", fmt.Sprintf("t%06d", i), vstore.Values{
			"assignedto": "racer", "status": "moved",
		}); err != nil {
			t.Fatalf("live overwrite during backfill: %v", err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("Put blocked for %v during backfill", d)
		}
		raced = i + 1
	}
	if raced == 0 {
		t.Skip("backfill finished before any write raced it; nothing to assert")
	}
	if err := db.WaitViewLive(ctxT(t), "assignedto"); err != nil {
		t.Fatal(err)
	}
	if err := db.QuiesceViews(ctxT(t)); err != nil {
		t.Fatal(err)
	}

	rows, err := c.GetView(ctxT(t), "assignedto", "racer")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*raced {
		t.Fatalf("racer group has %d rows, want %d (raced %d fresh + %d moved keys)",
			len(rows), 2*raced, raced, raced)
	}
	for _, r := range rows {
		want := "open"
		if r.BaseKey[0] == 't' {
			want = "moved"
		}
		if string(r.Columns["status"].Value) != want {
			t.Fatalf("row %s status = %q, want %q (live write must beat backfill)",
				r.BaseKey, r.Columns["status"].Value, want)
		}
	}
	// The overwritten keys must have left their old groups.
	for u := 0; u < 17; u++ {
		rows, err := c.GetView(ctxT(t), "assignedto", fmt.Sprintf("user%02d", u))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			var i int
			if _, err := fmt.Sscanf(r.BaseKey, "t%06d", &i); err == nil && i < raced {
				t.Fatalf("moved key %s still in old group user%02d", r.BaseKey, u)
			}
		}
	}
}

// TestDropViewAndRecreate: drop removes the view (reads fail), and a
// re-create with the same name backfills from scratch to the current
// base contents.
func TestDropViewAndRecreate(t *testing.T) {
	db := openTickets(t, vstore.Config{})
	c := db.Client(0)
	for i := 0; i < 50; i++ {
		if err := c.Put(ctxT(t), "ticket", fmt.Sprint(i), vstore.Values{
			"assignedto": "alice", "status": "open",
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.QuiesceViews(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	if err := db.DropView("assignedto"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetView(ctxT(t), "assignedto", "alice"); err == nil {
		t.Fatal("GetView on a dropped view succeeded")
	}
	if _, err := db.ViewState("assignedto"); err == nil {
		t.Fatal("ViewState on a dropped view succeeded")
	}
	// Base writes keep working with the view gone.
	if err := c.Put(ctxT(t), "ticket", "50", vstore.Values{
		"assignedto": "alice", "status": "open",
	}); err != nil {
		t.Fatal(err)
	}
	// Re-create: must backfill all 51 current keys.
	if err := db.CreateView(vstore.ViewDef{
		Name: "assignedto", Base: "ticket",
		ViewKey: "assignedto", Materialized: []string{"status"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.QuiesceViews(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	rows, err := c.GetView(ctxT(t), "assignedto", "alice")
	if err != nil || len(rows) != 51 {
		t.Fatalf("re-created view has %d rows, %v; want 51", len(rows), err)
	}
}

// TestBackfillCrashResume: closing the store mid-backfill and
// reopening from the same backend must resume the scan from its
// checkpoint and still converge to a complete view.
func TestBackfillCrashResume(t *testing.T) {
	b := vstore.MemBackend()
	db, err := vstore.Open(vstore.Config{Backend: b, Views: vstore.ViewOptions{
		BackfillBatchSize: 8,
		BackfillThrottle:  10 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("ticket"); err != nil {
		t.Fatal(err)
	}
	populateTickets(t, db, 300)
	if err := db.CreateViewAsync(vstore.ViewDef{
		Name: "assignedto", Base: "ticket",
		ViewKey: "assignedto", Materialized: []string{"status"},
	}); err != nil {
		t.Fatal(err)
	}
	// Let the scan make some progress, then "crash".
	time.Sleep(50 * time.Millisecond)
	db.Close()

	db2, err := vstore.Open(vstore.Config{Backend: b})
	if err != nil {
		t.Fatalf("reopen mid-backfill: %v", err)
	}
	defer db2.Close()
	if err := db2.WaitViewLive(ctxT(t), "assignedto"); err != nil {
		t.Fatal(err)
	}
	lc := db2.Stats().Views.Lifecycle["assignedto"]
	if lc.State != vstore.ViewLive {
		t.Fatalf("lifecycle after resume = %+v, want live", lc)
	}
	if err := db2.QuiesceViews(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	c := db2.Client(0)
	total := 0
	for u := 0; u < 17; u++ {
		rows, err := c.GetView(ctxT(t), "assignedto", fmt.Sprintf("user%02d", u))
		if err != nil {
			t.Fatal(err)
		}
		total += len(rows)
	}
	if total != 300 {
		t.Fatalf("resumed view holds %d rows, want 300", total)
	}
}

// TestWithMaxStaleness covers the bounded-staleness decision table.
func TestWithMaxStaleness(t *testing.T) {
	t.Run("backfilling rejects", func(t *testing.T) {
		noGoroutineOutlivesClose(t)
		db := openDB(t, vstore.Config{Views: vstore.ViewOptions{
			BackfillBatchSize: 4,
			BackfillThrottle:  20 * time.Millisecond,
		}})
		if err := db.CreateTable("ticket"); err != nil {
			t.Fatal(err)
		}
		populateTickets(t, db, 200)
		if err := db.CreateViewAsync(vstore.ViewDef{
			Name: "assignedto", Base: "ticket",
			ViewKey: "assignedto", Materialized: []string{"status"},
		}); err != nil {
			t.Fatal(err)
		}
		if st, _ := db.ViewState("assignedto"); st != vstore.ViewBackfilling {
			t.Skip("backfill finished before the read; cannot exercise the reject path")
		}
		_, err := db.Client(0).GetView(ctxT(t), "assignedto", "user00", vstore.WithMaxStaleness(time.Second))
		if !errors.Is(err, vstore.ErrViewBackfilling) || !errors.Is(err, vstore.ErrTooStale) {
			t.Fatalf("GetView during backfill = %v, want ErrViewBackfilling wrapping ErrTooStale", err)
		}
	})

	t.Run("fresh serves", func(t *testing.T) {
		noGoroutineOutlivesClose(t)
		db := openTickets(t, vstore.Config{})
		c := db.Client(0)
		if err := c.Put(ctxT(t), "ticket", "1", vstore.Values{"assignedto": "alice", "status": "open"}); err != nil {
			t.Fatal(err)
		}
		if err := db.QuiesceViews(ctxT(t)); err != nil {
			t.Fatal(err)
		}
		rows, err := c.GetView(ctxT(t), "assignedto", "alice", vstore.WithMaxStaleness(time.Millisecond))
		if err != nil || len(rows) != 1 {
			t.Fatalf("fresh GetView = %v, %v; want the row", rows, err)
		}
	})

	t.Run("stale rejects after the bound", func(t *testing.T) {
		noGoroutineOutlivesClose(t)
		db := openTickets(t, vstore.Config{Views: vstore.ViewOptions{
			PropagationDelay: func() time.Duration { return 2 * time.Second },
		}})
		c := db.Client(0)
		if err := c.Put(ctxT(t), "ticket", "1", vstore.Values{"assignedto": "alice", "status": "open"}); err != nil {
			t.Fatal(err)
		}
		// Let the pending propagation age well past the bound.
		time.Sleep(200 * time.Millisecond)
		start := time.Now()
		_, err := c.GetView(ctxT(t), "assignedto", "alice", vstore.WithMaxStaleness(50*time.Millisecond))
		if !errors.Is(err, vstore.ErrTooStale) {
			t.Fatalf("stale GetView = %v, want ErrTooStale", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("reject took %v, want roughly the 50ms bound", d)
		}
	})

	t.Run("waits for propagation within the bound", func(t *testing.T) {
		noGoroutineOutlivesClose(t)
		db := openTickets(t, vstore.Config{Views: vstore.ViewOptions{
			PropagationDelay: func() time.Duration { return 150 * time.Millisecond },
		}})
		c := db.Client(0)
		if err := c.Put(ctxT(t), "ticket", "1", vstore.Values{"assignedto": "alice", "status": "open"}); err != nil {
			t.Fatal(err)
		}
		// Age the pending propagation past the bound so the session
		// must wait, but let it complete inside the poll window.
		time.Sleep(100 * time.Millisecond)
		rows, err := c.GetView(ctxT(t), "assignedto", "alice", vstore.WithMaxStaleness(80*time.Millisecond))
		if err != nil || len(rows) != 1 {
			t.Fatalf("bounded-wait GetView = %v, %v; want the row after the propagation lands", rows, err)
		}
	})

	// The bounded wait parks on the pending propagations themselves, with
	// a timer for its deadline: it never reads a clock channel, so it runs
	// on a clock that has none.
	t.Run("waits on a clock without channels", func(t *testing.T) {
		noGoroutineOutlivesClose(t)
		db := openTickets(t, vstore.Config{
			Clock: afterPanics{clock.Wall},
			Views: vstore.ViewOptions{PropagationDelay: func() time.Duration { return 150 * time.Millisecond }},
		})
		c := db.Client(0)
		if err := c.Put(ctxT(t), "ticket", "1", vstore.Values{"assignedto": "alice", "status": "open"}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Millisecond)
		rows, err := c.GetView(ctxT(t), "assignedto", "alice", vstore.WithMaxStaleness(80*time.Millisecond))
		if err != nil || len(rows) != 1 {
			t.Fatalf("bounded-wait GetView = %v, %v; want the row after the propagation lands", rows, err)
		}
		if err := c.Put(ctxT(t), "ticket", "2", vstore.Values{"assignedto": "bob", "status": "open"}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Millisecond)
		if _, err := c.GetView(ctxT(t), "assignedto", "bob", vstore.WithMaxStaleness(20*time.Millisecond)); !errors.Is(err, vstore.ErrTooStale) {
			t.Fatalf("GetView past its budget = %v, want ErrTooStale", err)
		}
	})
}

// afterPanics is a clock whose channel timer panics, like the
// simulator's: nothing may wait on it that way.
type afterPanics struct{ clock.Clock }

func (afterPanics) After(time.Duration) <-chan time.Time { panic("Clock.After called") }

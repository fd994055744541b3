package vstore_test

import (
	"fmt"
	"testing"
	"time"

	"vstore"
)

func TestSelectionViewEndToEnd(t *testing.T) {
	db := openDB(t, vstore.Config{})
	if err := db.CreateTable("orders"); err != nil {
		t.Fatal(err)
	}
	// Only large orders materialize into the view.
	err := db.CreateView(vstore.ViewDef{
		Name:         "big_orders",
		Base:         "orders",
		ViewKey:      "bucket",
		Materialized: []string{"total"},
		Selection:    &vstore.Selection{Prefix: "big-"},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := db.Client(0)
	ctx := ctxT(t)
	if err := c.Put(ctx, "orders", "o1", vstore.Values{"bucket": "big-eu", "total": "900"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, "orders", "o2", vstore.Values{"bucket": "small-eu", "total": "3"}); err != nil {
		t.Fatal(err)
	}
	if err := db.QuiesceViews(ctx); err != nil {
		t.Fatal(err)
	}
	rows, err := c.GetView(ctx, "big_orders", "big-eu")
	if err != nil || len(rows) != 1 || string(rows[0].Columns["total"].Value) != "900" {
		t.Fatalf("big-eu rows = %v, %v", rows, err)
	}
	if rows, _ := c.GetView(ctx, "big_orders", "small-eu"); len(rows) != 0 {
		t.Fatalf("selection leaked: %v", rows)
	}
	// Invalid selections are rejected at definition time.
	err = db.CreateView(vstore.ViewDef{Name: "v2", Base: "orders", ViewKey: "bucket", Selection: &vstore.Selection{Min: "z", Max: "a"}})
	if err == nil {
		t.Fatal("inverted selection accepted")
	}
}

// A row whose view key moves from outside a selection into it enters the
// view with its materialized cells. Its old live row is structure-only —
// materialized writes skip rows outside the selection — so the promotion
// must take them from the base row.
func TestSelectionViewKeyMovesIntoSelection(t *testing.T) {
	db := openDB(t, vstore.Config{})
	if err := db.CreateTable("orders"); err != nil {
		t.Fatal(err)
	}
	err := db.CreateView(vstore.ViewDef{Name: "big_orders", Base: "orders", ViewKey: "bucket",
		Materialized: []string{"total"}, Selection: &vstore.Selection{Prefix: "big-"}})
	if err != nil {
		t.Fatal(err)
	}
	c := db.Client(0)
	ctx := ctxT(t)
	for _, v := range []vstore.Values{{"bucket": "small-eu", "total": "3"}, {"bucket": "big-us"}} {
		if err := c.Put(ctx, "orders", "o1", v); err != nil {
			t.Fatal(err)
		}
		if err := db.QuiesceViews(ctx); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := c.GetView(ctx, "big_orders", "big-us")
	if err != nil || len(rows) != 1 || string(rows[0].Columns["total"].Value) != "3" {
		t.Fatalf("big-us rows = %+v, %v; want o1 with total 3", rows, err)
	}
	if st := db.Stats().Views; st.BaseReads != 1 {
		t.Fatalf("%d base reads, want 1: the promotion out of small-eu", st.BaseReads)
	}
}

func TestPruneViewEndToEnd(t *testing.T) {
	db := openTickets(t, vstore.Config{})
	c := db.Client(0)
	ctx := ctxT(t)
	for i := 0; i < 8; i++ {
		if err := c.Put(ctx, "ticket", "hot", vstore.Values{"assignedto": fmt.Sprintf("u%d", i)}); err != nil {
			t.Fatal(err)
		}
		if err := db.QuiesceViews(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Everything was superseded "now"; a large olderThan prunes nothing.
	removed, err := db.PruneView(ctx, "assignedto", time.Hour)
	if err != nil || removed != 0 {
		t.Fatalf("removed=%d err=%v", removed, err)
	}
	// Horizon in the future (raw) prunes the stale rows.
	removed, err = db.PruneViewBefore(ctx, "assignedto", time.Now().Add(time.Hour).UnixMicro())
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("nothing pruned")
	}
	rows, err := c.GetView(ctx, "assignedto", "u7")
	if err != nil || len(rows) != 1 {
		t.Fatalf("live row lost: %v %v", rows, err)
	}
	if _, err := db.PruneView(ctx, "ghost", time.Hour); err == nil {
		t.Fatal("prune of unknown view accepted")
	}
}

func TestRebuildViewEndToEnd(t *testing.T) {
	db := openTickets(t, vstore.Config{
		// Make propagations give up instantly so updates get lost.
		Views: vstore.ViewOptions{MaxPropagationRetry: time.Nanosecond},
	})
	c := db.Client(0)
	ctx := ctxT(t)
	if err := c.Put(ctx, "ticket", "1", vstore.Values{"assignedto": "amy", "status": "open"}); err != nil {
		t.Fatal(err)
	}
	if err := db.QuiesceViews(ctx); err != nil {
		t.Fatal(err)
	}
	// The abandoned propagation left the view empty.
	if st := db.Stats(); st.Views.PropagationsDropped == 0 {
		t.Skip("propagation survived the nanosecond budget; nothing to rebuild")
	}
	if rows, _ := c.GetView(ctx, "assignedto", "amy"); len(rows) != 0 {
		t.Fatal("precondition: view should have lost the update")
	}
	if err := db.RebuildView(ctx, "assignedto"); err != nil {
		t.Fatal(err)
	}
	rows, err := c.GetView(ctx, "assignedto", "amy")
	if err != nil || len(rows) != 1 || string(rows[0].Columns["status"].Value) != "open" {
		t.Fatalf("after rebuild: %v %v", rows, err)
	}
	if err := db.RebuildView(ctx, "ghost"); err == nil {
		t.Fatal("rebuild of unknown view accepted")
	}
}

// TestRebuildViewRacesLivePuts: RebuildView re-derives a row through
// the regular propagation protocol, so it serializes with live writes
// to the same base key on the row lock. While a writer keeps moving one
// ticket between assignees, rebuilds run back to back; afterwards the
// ticket is visible exactly once, under its last assignee, and the
// versioned view holds exactly one live row for it. (The direct-write
// rebuild this replaced took no row lock and walked no chain.)
func TestRebuildViewRacesLivePuts(t *testing.T) {
	db := openTickets(t, vstore.Config{})
	c := db.Client(0)
	ctx := ctxT(t)
	stop, rebuilt := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				rebuilt <- nil
				return
			default:
			}
			if err := db.RebuildView(ctx, "assignedto"); err != nil {
				rebuilt <- err
				return
			}
		}
	}()
	const puts, users = 300, 5
	for i := 0; i < puts; i++ {
		vals := vstore.Values{"assignedto": fmt.Sprintf("u%d", i%users), "status": fmt.Sprint(i)}
		if err := c.Put(ctx, "ticket", "1", vals); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-rebuilt; err != nil {
		t.Fatal(err)
	}
	if err := db.QuiesceViews(ctx); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < users; u++ {
		rows, err := c.GetView(ctx, "assignedto", fmt.Sprintf("u%d", u))
		if err != nil {
			t.Fatal(err)
		}
		if u != (puts-1)%users {
			if len(rows) != 0 {
				t.Fatalf("ticket still visible under superseded key u%d: %v", u, rows)
			}
			continue
		}
		if len(rows) != 1 || string(rows[0].Columns["status"].Value) != fmt.Sprint(puts-1) {
			t.Fatalf("last key u%d shows %v", u, rows)
		}
	}
	if d, err := db.DiagnoseView("assignedto"); err != nil || d.LiveRows != 1 {
		t.Fatalf("want exactly one live row after racing rebuilds, got %+v (%v)", d, err)
	}
	if st := db.Stats(); st.Views.PropagationsDropped != 0 {
		t.Fatalf("%d propagations abandoned", st.Views.PropagationsDropped)
	}
}

func TestDiagnoseView(t *testing.T) {
	db := openTickets(t, vstore.Config{})
	c := db.Client(0)
	ctx := ctxT(t)
	// No structure yet.
	d, err := db.DiagnoseView("assignedto")
	if err != nil || d.LiveRows != 0 || d.StaleRows != 0 {
		t.Fatalf("empty view diagnostics = %+v, %v", d, err)
	}
	if _, err := db.DiagnoseView("ghost"); err == nil {
		t.Fatal("diagnose of unknown view accepted")
	}
	// Three reassignments of one ticket: 1 live row, stale rows for
	// the two superseded keys plus the chain anchor.
	for i := 0; i < 3; i++ {
		if err := c.Put(ctx, "ticket", "1", vstore.Values{"assignedto": fmt.Sprintf("u%d", i)}); err != nil {
			t.Fatal(err)
		}
		if err := db.QuiesceViews(ctx); err != nil {
			t.Fatal(err)
		}
	}
	d, err = db.DiagnoseView("assignedto")
	if err != nil {
		t.Fatal(err)
	}
	if d.LiveRows != 1 || d.StaleRows != 3 {
		t.Fatalf("diagnostics = %+v, want 1 live / 3 stale", d)
	}
	if d.MaxChainLength < 1 || d.MeanChainHops <= 0 {
		t.Fatalf("chain stats missing: %+v", d)
	}
	if d.OldestStaleAge <= 0 || d.OldestStaleAge > time.Hour {
		t.Fatalf("implausible stale age: %v", d.OldestStaleAge)
	}
	// Deleting the view key marks the live row.
	if err := c.Delete(ctx, "ticket", "1", "assignedto"); err != nil {
		t.Fatal(err)
	}
	if err := db.QuiesceViews(ctx); err != nil {
		t.Fatal(err)
	}
	d, _ = db.DiagnoseView("assignedto")
	if d.DeletedRows != 1 {
		t.Fatalf("deleted rows = %d, want 1 (%+v)", d.DeletedRows, d)
	}
	// Prune shrinks the structure; diagnostics reflect it.
	if _, err := db.PruneViewBefore(ctx, "assignedto", time.Now().Add(time.Hour).UnixMicro()); err != nil {
		t.Fatal(err)
	}
	after, _ := db.DiagnoseView("assignedto")
	if after.StaleRows >= d.StaleRows {
		t.Fatalf("prune did not shrink stale rows: %+v -> %+v", d, after)
	}
}

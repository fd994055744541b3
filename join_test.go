package vstore_test

import (
	"testing"
	"time"

	"vstore"
)

func openCustomersOrders(t *testing.T) *vstore.DB {
	t.Helper()
	db := openDB(t, vstore.Config{})
	for _, tbl := range []string{"customers", "orders"} {
		if err := db.CreateTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	err := db.CreateJoinView(vstore.JoinViewDef{
		Name:  "by_customer",
		Left:  vstore.JoinSide{Base: "customers", On: "id_self", Materialized: []string{"name"}},
		Right: vstore.JoinSide{Base: "orders", On: "customer", Materialized: []string{"total"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestJoinViewEndToEnd(t *testing.T) {
	db := openCustomersOrders(t)
	c := db.Client(0)
	ctx := ctxT(t)
	if err := c.Put(ctx, "customers", "c1", vstore.Values{"id_self": "k1", "name": "Ada"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, "orders", "o1", vstore.Values{"customer": "k1", "total": "99"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, "orders", "o2", vstore.Values{"customer": "k1", "total": "12"}); err != nil {
		t.Fatal(err)
	}
	if err := db.QuiesceViews(ctx); err != nil {
		t.Fatal(err)
	}
	rows, err := c.GetView(ctx, "by_customer", "k1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("join rows = %v", rows)
	}
	var customers, orders int
	for _, r := range rows {
		switch r.Table {
		case "customers":
			customers++
			if string(r.Columns["name"].Value) != "Ada" {
				t.Fatalf("customer row wrong: %+v", r)
			}
		case "orders":
			orders++
		default:
			t.Fatalf("unexpected table %q", r.Table)
		}
	}
	if customers != 1 || orders != 2 {
		t.Fatalf("sides: %d customers, %d orders", customers, orders)
	}
}

func TestJoinViewBackfillsBothSides(t *testing.T) {
	db := openDB(t, vstore.Config{})
	for _, tbl := range []string{"customers", "orders"} {
		if err := db.CreateTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	c := db.Client(0)
	ctx := ctxT(t)
	// Data exists before the join view is defined.
	if err := c.Put(ctx, "customers", "c1", vstore.Values{"id_self": "k", "name": "Ada"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, "orders", "o1", vstore.Values{"customer": "k", "total": "5"}); err != nil {
		t.Fatal(err)
	}
	err := db.CreateJoinView(vstore.JoinViewDef{
		Name:  "by_customer",
		Left:  vstore.JoinSide{Base: "customers", On: "id_self", Materialized: []string{"name"}},
		Right: vstore.JoinSide{Base: "orders", On: "customer", Materialized: []string{"total"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.GetView(ctx, "by_customer", "k")
	if err != nil || len(rows) != 2 {
		t.Fatalf("backfilled join rows = %v, %v", rows, err)
	}
}

func TestJoinViewValidation(t *testing.T) {
	db := openCustomersOrders(t)
	// Join name collides with existing table.
	err := db.CreateJoinView(vstore.JoinViewDef{
		Name:  "orders",
		Left:  vstore.JoinSide{Base: "customers", On: "x"},
		Right: vstore.JoinSide{Base: "orders", On: "y"},
	})
	if err == nil {
		t.Fatal("join shadowing a table accepted")
	}
	// Unknown base.
	err = db.CreateJoinView(vstore.JoinViewDef{
		Name:  "j2",
		Left:  vstore.JoinSide{Base: "ghost", On: "x"},
		Right: vstore.JoinSide{Base: "orders", On: "y"},
	})
	if err == nil {
		t.Fatal("join on unknown base accepted")
	}
	// Writes to the join view are rejected.
	if err := db.Client(0).Put(ctxT(t), "by_customer", "k", vstore.Values{"a": "b"}); err == nil {
		t.Fatal("write to join view accepted")
	}
	// Join views appear in the views listing and can be dropped.
	found := false
	for _, v := range db.Views() {
		if v == "by_customer" {
			found = true
		}
	}
	if !found {
		t.Fatalf("join view missing from Views(): %v", db.Views())
	}
	if err := db.DropView("by_customer"); err != nil {
		t.Fatal(err)
	}
}

func TestJoinViewSessionGuarantee(t *testing.T) {
	noGoroutineOutlivesClose(t)
	db := openDB(t, vstore.Config{
		Views: vstore.ViewOptions{PropagationDelay: func() time.Duration { return 40 * time.Millisecond }},
	})
	for _, tbl := range []string{"customers", "orders"} {
		if err := db.CreateTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	err := db.CreateJoinView(vstore.JoinViewDef{
		Name:  "by_customer",
		Left:  vstore.JoinSide{Base: "customers", On: "id_self"},
		Right: vstore.JoinSide{Base: "orders", On: "customer"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := db.Client(0).Session()
	defer sc.EndSession()
	ctx := ctxT(t)
	if err := sc.Put(ctx, "orders", "o9", vstore.Values{"customer": "k9"}); err != nil {
		t.Fatal(err)
	}
	rows, err := sc.GetView(ctx, "by_customer", "k9")
	if err != nil || len(rows) != 1 {
		t.Fatalf("session join read missed own write: %v %v", rows, err)
	}
}

func TestJoinViewRebuildEndToEnd(t *testing.T) {
	db := openCustomersOrders(t)
	c := db.Client(0)
	ctx := ctxT(t)
	if err := c.Put(ctx, "customers", "c1", vstore.Values{"id_self": "k", "name": "Ada"}); err != nil {
		t.Fatal(err)
	}
	if err := db.QuiesceViews(ctx); err != nil {
		t.Fatal(err)
	}
	if err := db.RebuildView(ctx, "by_customer"); err != nil {
		t.Fatal(err)
	}
	rows, err := c.GetView(ctx, "by_customer", "k")
	if err != nil || len(rows) != 1 {
		t.Fatalf("after rebuild: %v %v", rows, err)
	}
}

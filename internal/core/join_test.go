package core_test

import (
	"fmt"
	"sync"
	"testing"

	"vstore/internal/core"
	"vstore/internal/model"
)

// ordersJoin is the canonical equi-join example: customers and orders
// co-materialized by customer id.
func ordersJoin() core.JoinDef {
	return core.JoinDef{
		Name:  "by_customer",
		Left:  core.JoinSide{Base: "customers", On: "id_self", Materialized: []string{"name"}},
		Right: core.JoinSide{Base: "orders", On: "customer", Materialized: []string{"total"}},
	}
}

func defineJoin(t *testing.T, h *harness, jd core.JoinDef) {
	t.Helper()
	for _, b := range []string{jd.Left.Base, jd.Right.Base} {
		if err := h.c.CreateTable(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.c.CreateTable(jd.Name); err != nil {
		t.Fatal(err)
	}
	if err := h.reg.DefineJoin(jd); err != nil {
		t.Fatal(err)
	}
}

func TestJoinDefineValidation(t *testing.T) {
	reg := core.NewRegistry(core.Options{})
	defer reg.Close()
	if err := reg.DefineJoin(core.JoinDef{
		Name: "j",
		Left: core.JoinSide{Base: "a", On: "k"}, Right: core.JoinSide{Base: "a", On: "k"},
	}); err == nil {
		t.Fatal("self-join accepted")
	}
	if err := reg.DefineJoin(core.JoinDef{
		Name: "j",
		Left: core.JoinSide{Base: "a", On: ""}, Right: core.JoinSide{Base: "b", On: "k"},
	}); err == nil {
		t.Fatal("missing join column accepted")
	}
	if err := reg.DefineJoin(core.JoinDef{
		Name: "j",
		Left: core.JoinSide{Base: "a\x1fx", On: "k"}, Right: core.JoinSide{Base: "b", On: "k"},
	}); err == nil {
		t.Fatal("reserved byte in table name accepted")
	}
	good := core.JoinDef{
		Name: "j",
		Left: core.JoinSide{Base: "a", On: "k"}, Right: core.JoinSide{Base: "b", On: "k"},
	}
	if err := reg.DefineJoin(good); err != nil {
		t.Fatal(err)
	}
	if err := reg.DefineJoin(good); err == nil {
		t.Fatal("duplicate join accepted")
	}
	if got := len(reg.Defs("j")); got != 2 {
		t.Fatalf("join registered %d defs", got)
	}
	if len(reg.ViewsOn("a")) != 1 || len(reg.ViewsOn("b")) != 1 {
		t.Fatal("join sides not attached to their bases")
	}
	if err := reg.Drop("j"); err != nil {
		t.Fatal(err)
	}
	if len(reg.ViewsOn("a")) != 0 || len(reg.ViewsOn("b")) != 0 {
		t.Fatal("drop left join sides attached")
	}
}

func TestJoinBothSidesMaterialize(t *testing.T) {
	h := newHarness(t, core.Options{}, 4)
	defineJoin(t, h, ordersJoin())

	put := func(table, key string, updates ...model.ColumnUpdate) {
		t.Helper()
		if err := h.mgrs[0].Put(ctxT(t), table, key, updates, 2, nil); err != nil {
			t.Fatal(err)
		}
	}
	put("customers", "c1",
		model.Update("id_self", []byte("c1"), 1),
		model.Update("name", []byte("Ada"), 1))
	put("orders", "o1",
		model.Update("customer", []byte("c1"), 2),
		model.Update("total", []byte("99"), 2))
	put("orders", "o2",
		model.Update("customer", []byte("c1"), 3),
		model.Update("total", []byte("12"), 3))
	put("orders", "o3",
		model.Update("customer", []byte("c2"), 4),
		model.Update("total", []byte("5"), 4))
	h.quiesce(t)

	rows := getView(t, h.mgrs[1], "by_customer", "c1")
	if len(rows) != 3 {
		t.Fatalf("c1 join rows = %v, want customer + 2 orders", rows)
	}
	// Sorted by (Table, BaseKey): customers first, then orders.
	if rows[0].Table != "customers" || rows[0].BaseKey != "c1" || string(rows[0].Cells["name"].Value) != "Ada" {
		t.Fatalf("customer side wrong: %+v", rows[0])
	}
	if rows[1].Table != "orders" || rows[1].BaseKey != "o1" || string(rows[1].Cells["total"].Value) != "99" {
		t.Fatalf("order o1 wrong: %+v", rows[1])
	}
	if rows[2].BaseKey != "o2" {
		t.Fatalf("order o2 wrong: %+v", rows[2])
	}
	// c2 has an order but no customer row (outer behavior: the side
	// that exists shows up).
	rows = getView(t, h.mgrs[0], "by_customer", "c2")
	if len(rows) != 1 || rows[0].Table != "orders" || rows[0].BaseKey != "o3" {
		t.Fatalf("c2 rows = %v", rows)
	}
}

func TestJoinBaseKeyCollisionAcrossSides(t *testing.T) {
	// Both tables use the SAME primary key value; the namespacing must
	// keep the two view entries apart.
	h := newHarness(t, core.Options{}, 4)
	defineJoin(t, h, ordersJoin())
	put := func(table string, updates ...model.ColumnUpdate) {
		t.Helper()
		if err := h.mgrs[0].Put(ctxT(t), table, "shared-pk", updates, 2, nil); err != nil {
			t.Fatal(err)
		}
	}
	put("customers",
		model.Update("id_self", []byte("k"), 1),
		model.Update("name", []byte("Ada"), 1))
	put("orders",
		model.Update("customer", []byte("k"), 2),
		model.Update("total", []byte("7"), 2))
	h.quiesce(t)
	rows := getView(t, h.mgrs[0], "by_customer", "k")
	if len(rows) != 2 {
		t.Fatalf("rows = %v, want one per side", rows)
	}
	if rows[0].Table == rows[1].Table {
		t.Fatalf("sides collided: %v", rows)
	}
	for _, r := range rows {
		if r.BaseKey != "shared-pk" {
			t.Fatalf("base key mangled: %v", r)
		}
	}
}

func TestJoinSideMoves(t *testing.T) {
	h := newHarness(t, core.Options{}, 4)
	defineJoin(t, h, ordersJoin())
	if err := h.mgrs[0].Put(ctxT(t), "orders", "o1", []model.ColumnUpdate{
		model.Update("customer", []byte("c1"), 1),
		model.Update("total", []byte("50"), 1),
	}, 2, nil); err != nil {
		t.Fatal(err)
	}
	h.quiesce(t)
	// Reassign the order to another customer: it must move sides... er,
	// keys.
	if err := h.mgrs[2].Put(ctxT(t), "orders", "o1", []model.ColumnUpdate{
		model.Update("customer", []byte("c9"), 5),
	}, 2, nil); err != nil {
		t.Fatal(err)
	}
	h.quiesce(t)
	if rows := getView(t, h.mgrs[0], "by_customer", "c1"); len(rows) != 0 {
		t.Fatalf("order still under old customer: %v", rows)
	}
	rows := getView(t, h.mgrs[0], "by_customer", "c9")
	if len(rows) != 1 || string(rows[0].Cells["total"].Value) != "50" {
		t.Fatalf("moved order lost data: %v", rows)
	}
	// Versioned structure stays sound with namespaced keys.
	vrows, err := core.DecodeVersionedView(h.viewEntries("by_customer"))
	if err != nil {
		t.Fatal(err)
	}
	if err := core.CheckVersionedInvariants(vrows, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJoinConcurrentBothSides(t *testing.T) {
	h := newHarness(t, core.Options{}, 4)
	defineJoin(t, h, ordersJoin())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("c%d", i%3)
				var err error
				if w%2 == 0 {
					err = h.mgrs[w].Put(ctxT(t), "customers", fmt.Sprintf("cust-%d", i%3), []model.ColumnUpdate{
						model.Update("id_self", []byte(key), int64(i*4+w+1)),
					}, 2, nil)
				} else {
					err = h.mgrs[w].Put(ctxT(t), "orders", fmt.Sprintf("ord-%d-%d", w, i%5), []model.ColumnUpdate{
						model.Update("customer", []byte(key), int64(i*4+w+1)),
					}, 2, nil)
				}
				if err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	h.quiesce(t)
	vrows, err := core.DecodeVersionedView(h.viewEntries("by_customer"))
	if err != nil {
		t.Fatal(err)
	}
	if err := core.CheckVersionedInvariants(vrows, nil); err != nil {
		t.Fatal(err)
	}
	// Every order and customer visible under exactly one key.
	seen := map[string]int{}
	for k := 0; k < 3; k++ {
		for _, r := range getView(t, h.mgrs[0], "by_customer", fmt.Sprintf("c%d", k)) {
			seen[r.Table+"/"+r.BaseKey]++
		}
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("%s visible %d times", id, n)
		}
	}
}

func TestJoinOracleAgreement(t *testing.T) {
	// The join view must equal the union of Definition 1 applied to
	// each side.
	h := newHarness(t, core.Options{}, 4)
	jd := ordersJoin()
	defineJoin(t, h, jd)
	var custUpdates, orderUpdates []core.BaseUpdate
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("c%d", i%4)
		if i%2 == 0 {
			u := model.Update("id_self", []byte(key), int64(i+1))
			bk := fmt.Sprintf("cust-%d", i%6)
			if err := h.mgrs[i%4].Put(ctxT(t), "customers", bk, []model.ColumnUpdate{u}, 2, nil); err != nil {
				t.Fatal(err)
			}
			custUpdates = append(custUpdates, core.BaseUpdate{BaseKey: bk, Column: u.Column, Cell: u.Cell})
		} else {
			u := model.Update("customer", []byte(key), int64(i+1))
			bk := fmt.Sprintf("ord-%d", i%6)
			if err := h.mgrs[i%4].Put(ctxT(t), "orders", bk, []model.ColumnUpdate{u}, 2, nil); err != nil {
				t.Fatal(err)
			}
			orderUpdates = append(orderUpdates, core.BaseUpdate{BaseKey: bk, Column: u.Column, Cell: u.Cell})
		}
	}
	h.quiesce(t)

	defs := h.reg.Defs("by_customer")
	expected := append(
		core.ExpectedView(defs[0], map[string]model.Row{}, custUpdates),
		core.ExpectedView(defs[1], map[string]model.Row{}, orderUpdates)...)
	byKey := map[string]map[string]bool{}
	for _, vr := range expected {
		if byKey[vr.ViewKey] == nil {
			byKey[vr.ViewKey] = map[string]bool{}
		}
		byKey[vr.ViewKey][vr.Table+"/"+vr.BaseKey] = true
	}
	for k := 0; k < 4; k++ {
		key := fmt.Sprintf("c%d", k)
		got := getView(t, h.mgrs[0], "by_customer", key)
		want := byKey[key]
		if len(got) != len(want) {
			t.Fatalf("key %s: got %d rows %v, want %d %v", key, len(got), got, len(want), want)
		}
		for _, vr := range got {
			if !want[vr.Table+"/"+vr.BaseKey] {
				t.Fatalf("key %s: unexpected row %+v", key, vr)
			}
		}
	}
}

func TestJoinPerSideSelection(t *testing.T) {
	h := newHarness(t, core.Options{}, 4)
	jd := ordersJoin()
	jd.Right.Selection = &core.Selection{Prefix: "vip-"}
	defineJoin(t, h, jd)
	puts := []struct {
		table, key string
		updates    []model.ColumnUpdate
	}{
		{"customers", "c1", []model.ColumnUpdate{model.Update("id_self", []byte("vip-1"), 1), model.Update("name", []byte("Ada"), 1)}},
		{"orders", "o1", []model.ColumnUpdate{model.Update("customer", []byte("vip-1"), 2), model.Update("total", []byte("9"), 2)}},
		{"customers", "c2", []model.ColumnUpdate{model.Update("id_self", []byte("pleb-1"), 3), model.Update("name", []byte("Bob"), 3)}},
		{"orders", "o2", []model.ColumnUpdate{model.Update("customer", []byte("pleb-1"), 4), model.Update("total", []byte("3"), 4)}},
	}
	for _, p := range puts {
		if err := h.mgrs[0].Put(ctxT(t), p.table, p.key, p.updates, 2, nil); err != nil {
			t.Fatal(err)
		}
	}
	h.quiesce(t)
	// vip key: both sides.
	if rows := getView(t, h.mgrs[0], "by_customer", "vip-1"); len(rows) != 2 {
		t.Fatalf("vip rows = %v", rows)
	}
	// pleb key: only the unrestricted customers side.
	rows := getView(t, h.mgrs[0], "by_customer", "pleb-1")
	if len(rows) != 1 || rows[0].Table != "customers" {
		t.Fatalf("pleb rows = %v, want customers side only", rows)
	}
}

func TestJoinRebuild(t *testing.T) {
	h := newHarness(t, core.Options{}, 4)
	defineJoin(t, h, ordersJoin())
	co := h.c.Coordinator(0)
	// Write both sides directly (bypassing maintenance entirely).
	if err := co.Put(ctxT(t), "customers", "c1", []model.ColumnUpdate{
		model.Update("id_self", []byte("k1"), 1), model.Update("name", []byte("Ada"), 1),
	}, 3); err != nil {
		t.Fatal(err)
	}
	if err := co.Put(ctxT(t), "orders", "o1", []model.ColumnUpdate{
		model.Update("customer", []byte("k1"), 2), model.Update("total", []byte("8"), 2),
	}, 3); err != nil {
		t.Fatal(err)
	}
	h.refill(t, "by_customer")
	rows := getView(t, h.mgrs[0], "by_customer", "k1")
	if len(rows) != 2 {
		t.Fatalf("rebuilt join rows = %v", rows)
	}
}

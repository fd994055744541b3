package core_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"vstore/internal/core"
	"vstore/internal/model"
)

// --- Selection (relational σ over view keys) --------------------------------

func TestSelectionMatches(t *testing.T) {
	cases := []struct {
		sel  *core.Selection
		key  string
		want bool
	}{
		{nil, "anything", true},
		{&core.Selection{Prefix: "us-"}, "us-east", true},
		{&core.Selection{Prefix: "us-"}, "eu-west", false},
		{&core.Selection{Min: "b"}, "a", false},
		{&core.Selection{Min: "b"}, "b", true},
		{&core.Selection{Max: "m"}, "m", true},
		{&core.Selection{Max: "m"}, "n", false},
		{&core.Selection{Min: "b", Max: "d"}, "c", true},
		{&core.Selection{Prefix: "x", Min: "xa", Max: "xz"}, "xm", true},
		{&core.Selection{Prefix: "x", Min: "xa", Max: "xz"}, "x", false},
	}
	for i, c := range cases {
		if got := c.sel.Matches(c.key); got != c.want {
			t.Fatalf("case %d: Matches(%q) = %v", i, c.key, got)
		}
	}
}

func TestSelectionValidation(t *testing.T) {
	reg := core.NewRegistry(core.Options{})
	defer reg.Close()
	bad := core.Def{Name: "v", Base: "b", ViewKeyColumn: "k", Selection: &core.Selection{Min: "z", Max: "a"}}
	if err := reg.Define(bad); err == nil {
		t.Fatal("inverted range accepted")
	}
	empty := core.Def{Name: "v", Base: "b", ViewKeyColumn: "k", Selection: &core.Selection{}}
	if err := reg.Define(empty); err == nil {
		t.Fatal("empty selection accepted")
	}
}

// selective views only expose matching keys, and rows entering/leaving
// the selection behave like inserts/deletes.
func TestSelectionViewLifecycle(t *testing.T) {
	h := newHarness(t, core.Options{}, 4)
	def := core.Def{
		Name:          "open_tickets",
		Base:          "ticket",
		ViewKeyColumn: "status",
		Materialized:  []string{"owner"},
		Selection:     &core.Selection{Prefix: "open"},
	}
	mustDefine(t, h, def)

	put := func(id, status string, ts int64) {
		t.Helper()
		err := h.mgrs[0].Put(ctxT(t), "ticket", id, []model.ColumnUpdate{
			model.Update("status", []byte(status), ts),
			model.Update("owner", []byte("o-"+id), ts),
		}, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	put("1", "open", 1)
	put("2", "closed", 2)
	put("3", "open-urgent", 3)
	h.quiesce(t)

	if rows := getView(t, h.mgrs[1], "open_tickets", "open"); len(rows) != 1 || rows[0].BaseKey != "1" {
		t.Fatalf("open rows = %v", rows)
	}
	if rows := getView(t, h.mgrs[1], "open_tickets", "open-urgent"); len(rows) != 1 {
		t.Fatalf("open-urgent rows = %v", rows)
	}
	// Keys outside the selection read as empty, even though structural
	// rows exist.
	if rows := getView(t, h.mgrs[1], "open_tickets", "closed"); len(rows) != 0 {
		t.Fatalf("closed rows = %v (selection leak)", rows)
	}

	// Row 1 leaves the selection...
	put("1", "closed", 10)
	h.quiesce(t)
	if rows := getView(t, h.mgrs[0], "open_tickets", "open"); len(rows) != 0 {
		t.Fatalf("row stayed visible after leaving selection: %v", rows)
	}
	// ...and re-enters it: materialized data must come back (re-seeded
	// from the base during CopyData).
	put("1", "open", 20)
	h.quiesce(t)
	rows := getView(t, h.mgrs[0], "open_tickets", "open")
	if len(rows) != 1 || string(rows[0].Cells["owner"].Value) != "o-1" {
		t.Fatalf("row did not re-enter selection with data: %v", rows)
	}

	// Structural rows for unselected keys carry no materialized cells.
	vrows, err := core.DecodeVersionedView(h.viewEntries("open_tickets"))
	if err != nil {
		t.Fatal(err)
	}
	for _, vr := range vrows {
		if vr.ViewKey == "closed" && len(vr.Cells) != 0 {
			t.Fatalf("unselected row carries data cells: %v", vr.Cells)
		}
	}
	// And the versioned structure stays sound.
	if err := core.CheckVersionedInvariants(vrows, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSelectionOracleAgreement(t *testing.T) {
	// Randomized check: a selective view equals Definition 1 + σ.
	h := newHarness(t, core.Options{}, 4)
	def := ticketDef()
	def.Selection = &core.Selection{Min: "user-2", Max: "user-4"}
	mustDefine(t, h, def)

	var updates []core.BaseUpdate
	for i := 0; i < 60; i++ {
		u := model.Update("assignedto", []byte(fmt.Sprintf("user-%d", i%6)), int64(i+1))
		if i%7 == 0 {
			u = model.Update("status", []byte(fmt.Sprintf("s%d", i)), int64(i+1))
		}
		key := fmt.Sprintf("row-%d", i%5)
		if err := h.mgrs[i%4].Put(ctxT(t), "ticket", key, []model.ColumnUpdate{u}, 2, nil); err != nil {
			t.Fatal(err)
		}
		updates = append(updates, core.BaseUpdate{BaseKey: key, Column: u.Column, Cell: u.Cell})
	}
	h.quiesce(t)
	d, _ := h.reg.View(def.Name)
	expected := core.ExpectedView(d, map[string]model.Row{}, updates)
	for k := 0; k < 6; k++ {
		key := fmt.Sprintf("user-%d", k)
		var want []core.ViewRow
		for _, vr := range expected {
			if vr.ViewKey == key {
				want = append(want, vr)
			}
		}
		got := getView(t, h.mgrs[0], def.Name, key)
		if len(got) != len(want) {
			t.Fatalf("key %s: got %v want %v", key, got, want)
		}
	}
}

// --- Prune -------------------------------------------------------------------

func TestPruneRemovesOldStaleRows(t *testing.T) {
	h := newHarness(t, core.Options{SyncPropagation: true}, 4)
	mustDefine(t, h, ticketDef())
	const moves = 10
	for i := 0; i < moves; i++ {
		err := h.mgrs[0].Put(ctxT(t), "ticket", "hot", []model.ColumnUpdate{
			model.Update("assignedto", []byte(fmt.Sprintf("user-%02d", i)), int64(i+1)),
			model.Update("status", []byte("open"), int64(i+1)),
		}, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	d, _ := h.reg.View("assignedto")
	countStale := func() int {
		t.Helper()
		vrows, err := core.DecodeVersionedView(h.viewEntries("assignedto"))
		if err != nil {
			t.Fatal(err)
		}
		stale := 0
		for _, vr := range vrows {
			if !vr.Next.IsNull() && !vr.Next.Tombstone && string(vr.Next.Value) != vr.ViewKey {
				stale++
			}
		}
		return stale
	}
	if got := countStale(); got != moves-1+1 { // moves-1 superseded keys + 1 anchor
		t.Fatalf("pre-prune stale rows = %d", got)
	}
	// Horizon excludes the last two supersessions (pointer ts 9, 10).
	removed, err := core.Prune(ctxT(t), h.c.Coordinator(0), d, h.viewEntries("assignedto"), 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("nothing pruned")
	}
	after := countStale()
	if after >= moves {
		t.Fatalf("stale rows after prune = %d", after)
	}
	// The live row must be untouched and readable.
	rows := getView(t, h.mgrs[0], "assignedto", fmt.Sprintf("user-%02d", moves-1))
	if len(rows) != 1 || string(rows[0].Cells["status"].Value) != "open" {
		t.Fatalf("live row damaged by prune: %v", rows)
	}
	// Updates after a prune still propagate fine.
	err = h.mgrs[1].Put(ctxT(t), "ticket", "hot", []model.ColumnUpdate{
		model.Update("assignedto", []byte("user-99"), 100),
	}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows := getView(t, h.mgrs[0], "assignedto", "user-99"); len(rows) != 1 {
		t.Fatalf("post-prune update lost: %v", rows)
	}
}

func TestPruneKeepsRecentAndLive(t *testing.T) {
	h := newHarness(t, core.Options{SyncPropagation: true}, 4)
	mustDefine(t, h, ticketDef())
	for i := 0; i < 3; i++ {
		err := h.mgrs[0].Put(ctxT(t), "ticket", "r", []model.ColumnUpdate{
			model.Update("assignedto", []byte(fmt.Sprintf("k%d", i)), int64(i+1)),
		}, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	d, _ := h.reg.View("assignedto")
	// Horizon below every pointer: nothing may be pruned.
	removed, err := core.Prune(ctxT(t), h.c.Coordinator(0), d, h.viewEntries("assignedto"), 0, 2)
	if err != nil || removed != 0 {
		t.Fatalf("removed=%d err=%v", removed, err)
	}
	// Horizon above everything: stale rows go, the live row survives.
	if _, err := core.Prune(ctxT(t), h.c.Coordinator(0), d, h.viewEntries("assignedto"), 1<<40, 2); err != nil {
		t.Fatal(err)
	}
	if rows := getView(t, h.mgrs[0], "assignedto", "k2"); len(rows) != 1 {
		t.Fatalf("live row pruned: %v", rows)
	}
}

// --- Rebuild ------------------------------------------------------------------

func TestRebuildRecoversLostPropagations(t *testing.T) {
	h := newHarness(t, core.Options{}, 4)
	mustDefine(t, h, ticketDef())
	loadTickets(t, h)

	// Simulate lost maintenance: write directly to the base table,
	// bypassing the view manager entirely (as if every propagation of
	// these updates had been abandoned).
	co := h.c.Coordinator(0)
	if err := co.Put(ctxT(t), "ticket", "1", []model.ColumnUpdate{model.Update("assignedto", []byte("ghost"), 500)}, 3); err != nil {
		t.Fatal(err)
	}
	if err := co.Put(ctxT(t), "ticket", "5", []model.ColumnUpdate{model.Update("status", []byte("lost"), 501)}, 3); err != nil {
		t.Fatal(err)
	}
	// The view is now wrong: ticket 1 still under rliu, ticket 5 stale.
	if rows := getView(t, h.mgrs[0], "assignedto", "ghost"); len(rows) != 0 {
		t.Fatal("precondition: view should not know about ghost yet")
	}

	h.refill(t, "assignedto")

	// Ticket 1 must now be under ghost only; ticket 5's status fixed.
	if rows := getView(t, h.mgrs[0], "assignedto", "ghost"); len(rows) != 1 || rows[0].BaseKey != "1" {
		t.Fatalf("ghost rows after rebuild = %v", rows)
	}
	for _, r := range getView(t, h.mgrs[0], "assignedto", "rliu") {
		if r.BaseKey == "1" {
			t.Fatal("ticket 1 still visible under old key after rebuild")
		}
	}
	found := false
	for _, r := range getView(t, h.mgrs[0], "assignedto", "cjin") {
		if r.BaseKey == "5" {
			found = true
			if string(r.Cells["status"].Value) != "lost" {
				t.Fatalf("ticket 5 status not rebuilt: %v", r)
			}
		}
	}
	if !found {
		t.Fatal("ticket 5 missing after rebuild")
	}
	// Structure must be sound afterwards.
	vrows, err := core.DecodeVersionedView(h.viewEntries("assignedto"))
	if err != nil {
		t.Fatal(err)
	}
	if err := core.CheckVersionedInvariants(vrows, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRebuildIsIdempotent(t *testing.T) {
	h := newHarness(t, core.Options{}, 4)
	mustDefine(t, h, ticketDef())
	loadTickets(t, h)
	for round := 0; round < 2; round++ {
		h.refill(t, "assignedto")
	}
	// Figure 1's view must be byte-for-byte intact.
	rows := getView(t, h.mgrs[0], "assignedto", "rliu")
	if len(rows) != 2 || rows[0].BaseKey != "1" || rows[1].BaseKey != "4" {
		t.Fatalf("rliu rows after double rebuild = %v", rows)
	}
}

// Property: Selection.Matches is consistent with its parts.
func TestSelectionMatchesQuick(t *testing.T) {
	f := func(prefix, minS, maxS, key string) bool {
		if minS > maxS {
			minS, maxS = maxS, minS
		}
		sel := &core.Selection{Prefix: prefix, Min: minS, Max: maxS}
		got := sel.Matches(key)
		want := true
		if prefix != "" && len(key) >= 0 {
			want = want && len(key) >= len(prefix) && key[:min(len(prefix), len(key))] == prefix
		}
		if minS != "" {
			want = want && key >= minS
		}
		if maxS != "" {
			want = want && key <= maxS
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

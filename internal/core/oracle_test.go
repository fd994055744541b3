package core_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"vstore/internal/core"
	"vstore/internal/model"
)

// randomWorkload drives a randomized update mix (view-key updates with
// deliberately colliding timestamps, materialized-column updates,
// view-key deletions) through randomly chosen coordinators with fully
// asynchronous propagation, then checks, after quiescence:
//
//  1. eventual view correctness: the application-visible view equals
//     Definition 1 applied to the final base state (which, because all
//     updates propagate, equals Definition 2's expected view);
//  2. structural correctness: the versioned view satisfies
//     Definition 3's invariants (one live ready row per base row,
//     acyclic chains reaching it).
func randomWorkload(t *testing.T, opts core.Options, seed int64, ops int) {
	t.Helper()
	h := newHarness(t, opts, 4)
	mustDefine(t, h, ticketDef())

	r := rand.New(rand.NewSource(seed))
	const baseRows = 8
	const keySpace = 6
	var mu sync.Mutex
	var updates []core.BaseUpdate

	record := func(u core.BaseUpdate) {
		mu.Lock()
		updates = append(updates, u)
		mu.Unlock()
	}

	var wg sync.WaitGroup
	type op struct {
		mgr     int
		baseKey string
		upd     model.ColumnUpdate
	}
	plan := make([]op, 0, ops)
	for i := 0; i < ops; i++ {
		baseKey := fmt.Sprintf("row-%d", r.Intn(baseRows))
		ts := int64(r.Intn(ops/2) + 1) // collisions on purpose
		var u model.ColumnUpdate
		switch r.Intn(10) {
		case 0, 1, 2, 3:
			u = model.Update("assignedto", []byte(fmt.Sprintf("user-%d", r.Intn(keySpace))), ts)
		case 4:
			u = model.Deletion("assignedto", ts)
		default:
			u = model.Update("status", []byte(fmt.Sprintf("s-%d", r.Intn(5))), ts)
		}
		plan = append(plan, op{mgr: r.Intn(len(h.mgrs)), baseKey: baseKey, upd: u})
	}
	for _, o := range plan {
		o := o
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := h.mgrs[o.mgr].Put(ctxT(t), "ticket", o.baseKey, []model.ColumnUpdate{o.upd}, 2, nil)
			if err != nil {
				t.Errorf("put: %v", err)
				return
			}
			record(core.BaseUpdate{BaseKey: o.baseKey, Column: o.upd.Column, Cell: o.upd.Cell})
		}()
	}
	wg.Wait()
	h.quiesce(t)

	var abandoned int64
	for _, m := range h.mgrs {
		abandoned += m.Stats().Abandoned.Load()
	}
	if abandoned > 0 {
		t.Fatalf("%d propagations abandoned; correctness check would be vacuous", abandoned)
	}

	// Oracle: every recorded update has propagated, so the expected
	// view is Definition 1 over the fully-updated base state.
	expected := core.ExpectedView(ticketPtr(h), map[string]model.Row{}, updates)
	wantByKey := map[string][]core.ViewRow{}
	for _, vr := range expected {
		wantByKey[vr.ViewKey] = append(wantByKey[vr.ViewKey], vr)
	}

	for k := 0; k < keySpace; k++ {
		key := fmt.Sprintf("user-%d", k)
		got := getView(t, h.mgrs[0], "assignedto", key)
		want := wantByKey[key]
		if len(got) != len(want) {
			t.Fatalf("GetView(%q): got %d rows %v, want %d rows %v", key, len(got), got, len(want), want)
		}
		for i := range want {
			if got[i].BaseKey != want[i].BaseKey {
				t.Fatalf("GetView(%q)[%d].BaseKey = %q, want %q", key, i, got[i].BaseKey, want[i].BaseKey)
			}
			for col, wantCell := range want[i].Cells {
				gotCell, ok := got[i].Cells[col]
				if !ok || !gotCell.Equal(wantCell) {
					t.Fatalf("GetView(%q)[%d].%s = %v, want %v", key, i, col, gotCell, wantCell)
				}
			}
			for col := range got[i].Cells {
				if _, ok := want[i].Cells[col]; !ok {
					t.Fatalf("GetView(%q)[%d] has unexpected cell %s", key, i, col)
				}
			}
		}
	}

	// Structural invariants of the versioned view (Definition 3).
	vrows, err := core.DecodeVersionedView(h.viewEntries("assignedto"))
	if err != nil {
		t.Fatal(err)
	}
	expectedLive := expectedLiveKeys(updates)
	if err := core.CheckVersionedInvariants(vrows, expectedLive); err != nil {
		t.Fatal(err)
	}
}

func ticketPtr(h *harness) *core.Def {
	d, _ := h.reg.View("assignedto")
	return d
}

// expectedLiveKeys computes, per base row, the view key its live row
// must carry: the LWW winner among the row's non-tombstone view-key
// writes. (Deletions mark the live row but do not move it.)
func expectedLiveKeys(updates []core.BaseUpdate) map[string]string {
	winners := map[string]model.Cell{}
	for _, u := range updates {
		if u.Column != "assignedto" || u.Cell.Tombstone {
			continue
		}
		winners[u.BaseKey] = model.Merge(winners[u.BaseKey], u.Cell)
	}
	out := map[string]string{}
	for k, c := range winners {
		if c.Exists() {
			out[k] = string(c.Value)
		}
	}
	return out
}

func TestRandomizedOracleLocksMode(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			randomWorkload(t, core.Options{}, seed, 120)
		})
	}
}

func TestRandomizedOraclePropagatorsMode(t *testing.T) {
	for seed := int64(10); seed <= 13; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			randomWorkload(t, core.Options{Mode: core.ModePropagators, Propagators: 4}, seed, 120)
		})
	}
}

func TestRandomizedOraclePathCompression(t *testing.T) {
	for seed := int64(30); seed <= 32; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			randomWorkload(t, core.Options{PathCompression: true}, seed, 120)
		})
	}
}

func TestRandomizedOracleHotRow(t *testing.T) {
	// Everything hammers one base row: maximal view-key contention,
	// longest stale chains, the paper's Figure 8 regime.
	h := newHarness(t, core.Options{}, 4)
	mustDefine(t, h, ticketDef())
	r := rand.New(rand.NewSource(99))
	var mu sync.Mutex
	var updates []core.BaseUpdate
	var wg sync.WaitGroup
	for i := 0; i < 80; i++ {
		ts := int64(r.Intn(40) + 1)
		u := model.Update("assignedto", []byte(fmt.Sprintf("user-%d", r.Intn(5))), ts)
		mgr := h.mgrs[r.Intn(len(h.mgrs))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := mgr.Put(ctxT(t), "ticket", "hot", []model.ColumnUpdate{u}, 2, nil); err != nil {
				t.Errorf("put: %v", err)
				return
			}
			mu.Lock()
			updates = append(updates, core.BaseUpdate{BaseKey: "hot", Column: u.Column, Cell: u.Cell})
			mu.Unlock()
		}()
	}
	wg.Wait()
	h.quiesce(t)

	vrows, err := core.DecodeVersionedView(h.viewEntries("assignedto"))
	if err != nil {
		t.Fatal(err)
	}
	if err := core.CheckVersionedInvariants(vrows, expectedLiveKeys(updates)); err != nil {
		t.Fatal(err)
	}
	// The winner must be the only visible row.
	winner := expectedLiveKeys(updates)["hot"]
	rows := getView(t, h.mgrs[0], "assignedto", winner)
	if len(rows) != 1 || rows[0].BaseKey != "hot" {
		t.Fatalf("winner key %q rows = %v", winner, rows)
	}
}

func TestComputeViewDefinition1(t *testing.T) {
	def := ticketDef()
	base := map[string]model.Row{
		"1": {"assignedto": {Value: []byte("a"), TS: 1}, "status": {Value: []byte("open"), TS: 1}},
		"2": {"assignedto": {Value: []byte("a"), TS: 2}},
		"3": {"status": {Value: []byte("open"), TS: 1}},                                      // no view key
		"4": {"assignedto": {TS: 5, Tombstone: true}, "status": {Value: []byte("x"), TS: 1}}, // deleted key
	}
	rows := core.ComputeView(&def, base)
	if len(rows) != 2 {
		t.Fatalf("ComputeView = %v, want rows for base 1 and 2", rows)
	}
	if rows[0].BaseKey != "1" || rows[1].BaseKey != "2" || rows[0].ViewKey != "a" {
		t.Fatalf("ComputeView order/content wrong: %v", rows)
	}
	if string(rows[0].Cells["status"].Value) != "open" {
		t.Fatalf("materialized cell missing: %v", rows[0])
	}
	if len(rows[1].Cells) != 0 {
		t.Fatalf("row 2 should have no materialized cells: %v", rows[1])
	}
}

func TestApplyUpdatesIsLWWFold(t *testing.T) {
	base := map[string]model.Row{"r": {"c": {Value: []byte("old"), TS: 5}}}
	updates := []core.BaseUpdate{
		{BaseKey: "r", Column: "c", Cell: model.Cell{Value: []byte("stale"), TS: 3}},
		{BaseKey: "r", Column: "c", Cell: model.Cell{Value: []byte("new"), TS: 9}},
		{BaseKey: "s", Column: "c", Cell: model.Cell{Value: []byte("fresh"), TS: 1}},
	}
	next := core.ApplyUpdates(base, updates)
	if string(next["r"]["c"].Value) != "new" {
		t.Fatalf("r.c = %v", next["r"]["c"])
	}
	if string(next["s"]["c"].Value) != "fresh" {
		t.Fatalf("s.c = %v", next["s"]["c"])
	}
	// The input state must be untouched.
	if string(base["r"]["c"].Value) != "old" {
		t.Fatal("ApplyUpdates mutated its input")
	}
}

func TestCheckVersionedInvariantsDetectsBreakage(t *testing.T) {
	mk := func(viewKey, baseKey, next string, ts int64, ready bool) core.VersionedRow {
		r := core.VersionedRow{
			ViewKey: viewKey, BaseKey: baseKey,
			Next:    model.Cell{Value: []byte(next), TS: ts},
			Ready:   model.NullCell,
			Deleted: model.NullCell,
			Cells:   model.Row{},
		}
		if ready {
			r.Ready = model.Cell{Value: []byte("1"), TS: ts}
		}
		return r
	}
	// Healthy: stale a -> live b.
	ok := []core.VersionedRow{mk("a", "r", "b", 1, false), mk("b", "r", "b", 2, true)}
	if err := core.CheckVersionedInvariants(ok, map[string]string{"r": "b"}); err != nil {
		t.Fatalf("healthy structure rejected: %v", err)
	}
	// Two live rows.
	twoLive := []core.VersionedRow{mk("a", "r", "a", 1, true), mk("b", "r", "b", 2, true)}
	if err := core.CheckVersionedInvariants(twoLive, nil); err == nil {
		t.Fatal("two live rows accepted")
	}
	// Cycle.
	cycle := []core.VersionedRow{mk("a", "r", "b", 1, false), mk("b", "r", "a", 2, false), mk("c", "r", "c", 3, true)}
	if err := core.CheckVersionedInvariants(cycle, nil); err == nil {
		t.Fatal("pointer cycle accepted")
	}
	// Dangling pointer.
	dangle := []core.VersionedRow{mk("a", "r", "ghost", 1, false), mk("c", "r", "c", 3, true)}
	if err := core.CheckVersionedInvariants(dangle, nil); err == nil {
		t.Fatal("dangling pointer accepted")
	}
	// Live row not ready.
	notReady := []core.VersionedRow{mk("a", "r", "a", 5, false)}
	if err := core.CheckVersionedInvariants(notReady, nil); err == nil {
		t.Fatal("unready live row accepted")
	}
	// Wrong live key vs expectation.
	if err := core.CheckVersionedInvariants(ok, map[string]string{"r": "zzz"}); err == nil {
		t.Fatal("wrong live key accepted")
	}
}

package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"vstore/internal/model"
)

// White-box tests of assembleViewRows, the read-side filter of
// Algorithm 4: given the raw cells of one versioned view row, it must
// expose exactly the ready live rows that are not deleted.

// plainDefs is the single-base definition set used by most tests.
func plainDefs(mats ...string) []*Def {
	return []*Def{{Name: "v", Base: "b", ViewKeyColumn: "k", Materialized: mats}}
}

// rawRow builds the qualified cells for one base key inside a view row.
func rawRow(baseKey string, cells map[string]model.Cell) model.Row {
	out := model.Row{}
	for col, cell := range cells {
		out[model.Qualify(baseKey, col)] = cell
	}
	return out
}

// entriesOf returns a raw view row as a whole-row read delivers it:
// entries sorted by qualified column name, each Key the name.
func entriesOf(raw model.Row) []model.Entry {
	out := make([]model.Entry, 0, len(raw))
	for name, cell := range raw {
		out = append(out, model.Entry{Key: []byte(name), Cell: cell})
	}
	slices.SortFunc(out, func(a, b model.Entry) int { return bytes.Compare(a.Key, b.Key) })
	return out
}

func mergeRaw(rows ...model.Row) model.Row {
	out := model.Row{}
	for _, r := range rows {
		for k, v := range r {
			out[k] = v
		}
	}
	return out
}

func live(key string, ts int64) map[string]model.Cell {
	return map[string]model.Cell{
		ColNext:  {Value: []byte(key), TS: ts},
		ColReady: {Value: []byte("1"), TS: ts},
		ColBase:  {Value: []byte("b"), TS: ts},
	}
}

func TestAssembleLiveRowVisible(t *testing.T) {
	cells := live("k", 5)
	cells["status"] = model.Cell{Value: []byte("open"), TS: 5}
	rows, initializing := assembleViewRows(plainDefs("status"), "k", entriesOf(rawRow("b1", cells)), []string{"status"})
	if initializing {
		t.Fatal("spurious initializing")
	}
	if len(rows) != 1 || rows[0].BaseKey != "b1" || string(rows[0].Cells["status"].Value) != "open" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestAssembleStaleRowHidden(t *testing.T) {
	cells := map[string]model.Cell{
		ColNext: {Value: []byte("elsewhere"), TS: 5},
		ColBase: {Value: []byte("b"), TS: 5},
	}
	rows, initializing := assembleViewRows(plainDefs(), "k", entriesOf(rawRow("b1", cells)), nil)
	if len(rows) != 0 || initializing {
		t.Fatalf("stale row leaked: %v", rows)
	}
}

func TestAssembleInitializingHiddenAndFlagged(t *testing.T) {
	// Self-pointing Next but no (or old) ready marker: mid-copy row.
	cells := map[string]model.Cell{
		ColNext: {Value: []byte("k"), TS: 9},
		ColBase: {Value: []byte("b"), TS: 9},
	}
	rows, initializing := assembleViewRows(plainDefs(), "k", entriesOf(rawRow("b1", cells)), nil)
	if len(rows) != 0 || !initializing {
		t.Fatalf("rows=%v initializing=%v", rows, initializing)
	}
	// Stale ready marker (older than the pointer) is the same state.
	cells[ColReady] = model.Cell{Value: []byte("1"), TS: 3}
	rows, initializing = assembleViewRows(plainDefs(), "k", entriesOf(rawRow("b1", cells)), nil)
	if len(rows) != 0 || !initializing {
		t.Fatalf("stale-ready: rows=%v initializing=%v", rows, initializing)
	}
}

func TestAssembleDeletionFilter(t *testing.T) {
	cells := live("k", 5)
	// Deletion newer than the live pointer hides the row.
	cells[ColDeleted] = model.Cell{Value: []byte("1"), TS: 7}
	rows, _ := assembleViewRows(plainDefs(), "k", entriesOf(rawRow("b1", cells)), nil)
	if len(rows) != 0 {
		t.Fatalf("deleted row visible: %v", rows)
	}
	// Deletion older than the live pointer does not.
	cells[ColDeleted] = model.Cell{Value: []byte("1"), TS: 3}
	rows, _ = assembleViewRows(plainDefs(), "k", entriesOf(rawRow("b1", cells)), nil)
	if len(rows) != 1 {
		t.Fatalf("old deletion hid the row: %v", rows)
	}
	// Tombstoned deletion marker is no deletion.
	cells[ColDeleted] = model.Cell{TS: 9, Tombstone: true}
	rows, _ = assembleViewRows(plainDefs(), "k", entriesOf(rawRow("b1", cells)), nil)
	if len(rows) != 1 {
		t.Fatalf("tombstoned marker hid the row: %v", rows)
	}
}

func TestAssembleMultipleBaseRowsSorted(t *testing.T) {
	raw := mergeRaw(
		rawRow("b2", live("k", 1)),
		rawRow("b1", live("k", 2)),
		rawRow("b3", map[string]model.Cell{ColNext: {Value: []byte("other"), TS: 1}}),
	)
	rows, _ := assembleViewRows(plainDefs(), "k", entriesOf(raw), nil)
	if len(rows) != 2 || rows[0].BaseKey != "b1" || rows[1].BaseKey != "b2" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestAssembleSkipsTombstonedCellsAndColumns(t *testing.T) {
	cells := live("k", 5)
	cells["gone"] = model.Cell{TS: 6, Tombstone: true}
	cells["kept"] = model.Cell{Value: []byte("v"), TS: 6}
	rows, _ := assembleViewRows(plainDefs("gone", "kept"), "k", entriesOf(rawRow("b1", cells)), []string{"gone", "kept"})
	if len(rows) != 1 {
		t.Fatal("row missing")
	}
	if _, ok := rows[0].Cells["gone"]; ok {
		t.Fatal("tombstoned cell exposed")
	}
	if string(rows[0].Cells["kept"].Value) != "v" {
		t.Fatalf("kept cell wrong: %v", rows[0].Cells)
	}
	// Unrequested columns are filtered out.
	rows, _ = assembleViewRows(plainDefs("gone", "kept"), "k", entriesOf(rawRow("b1", cells)), []string{"kept"})
	if len(rows[0].Cells) != 1 {
		t.Fatalf("column projection leaked: %v", rows[0].Cells)
	}
}

func TestAssembleIgnoresMalformedCellNames(t *testing.T) {
	raw := rawRow("b1", live("k", 1))
	raw["\xff\xffgarbage"] = model.Cell{Value: []byte("x"), TS: 1}
	rows, _ := assembleViewRows(plainDefs(), "k", entriesOf(raw), nil)
	if len(rows) != 1 {
		t.Fatalf("malformed name broke assembly: %v", rows)
	}
}

// Property: assembly never exposes a row whose Next pointer is not a
// ready self-pointer with a current (non-deleted) state, and never
// reports initializing without an unready self-pointer present.
func TestAssembleProperties(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 2000; trial++ {
		const viewKey = "k"
		nBase := r.Intn(4) + 1
		raw := model.Row{}
		type state struct{ visible, initializing bool }
		expect := map[string]state{}
		for b := 0; b < nBase; b++ {
			baseKey := fmt.Sprintf("b%d", b)
			hasNext := r.Intn(4) > 0
			if !hasNext {
				continue
			}
			self := r.Intn(2) == 0
			nextTS := int64(r.Intn(10) + 1)
			nextVal := "other"
			if self {
				nextVal = viewKey
			}
			raw[model.Qualify(baseKey, ColNext)] = model.Cell{Value: []byte(nextVal), TS: nextTS}
			ready := false
			if r.Intn(2) == 0 {
				readyTS := int64(r.Intn(12))
				raw[model.Qualify(baseKey, ColReady)] = model.Cell{Value: []byte("1"), TS: readyTS}
				ready = readyTS >= nextTS
			}
			deleted := false
			if r.Intn(3) == 0 {
				delTS := int64(r.Intn(12))
				raw[model.Qualify(baseKey, ColDeleted)] = model.Cell{Value: []byte("1"), TS: delTS}
				deleted = delTS >= nextTS
			}
			expect[baseKey] = state{
				visible:      self && ready && !deleted,
				initializing: self && !ready,
			}
		}
		rows, initializing := assembleViewRows(plainDefs(), viewKey, entriesOf(raw), nil)
		got := map[string]bool{}
		for _, vr := range rows {
			got[vr.BaseKey] = true
		}
		wantInit := false
		for baseKey, st := range expect {
			if got[baseKey] != st.visible {
				t.Fatalf("trial %d: base %q visible=%v want %v (raw %v)", trial, baseKey, got[baseKey], st.visible, raw)
			}
			wantInit = wantInit || st.initializing
		}
		if initializing != wantInit {
			t.Fatalf("trial %d: initializing=%v want %v", trial, initializing, wantInit)
		}
	}
}

// joinDefs is a join view's definition pair: sides a and b, each
// materializing "m".
func joinDefs() []*Def {
	return []*Def{
		{Name: "j", Base: "a", ViewKeyColumn: "k", Materialized: []string{"m"}, namespace: "a"},
		{Name: "j", Base: "b", ViewKeyColumn: "k", Materialized: []string{"m"}, namespace: "b"},
	}
}

// Both sides of a join view under one view key: each namespace's
// groups route to their own side, and the rows sort by table, then
// base key.
func TestAssembleJoinNamespaces(t *testing.T) {
	side := func(ns, baseKey, m string) model.Row {
		cells := live("k", 4)
		cells["m"] = model.Cell{Value: []byte(m), TS: 4}
		return rawRow(ns+keySep+baseKey, cells)
	}
	raw := mergeRaw(side("b", "1", "b1"), side("a", "2", "a2"), side("a", "1", "a1"),
		rawRow("c"+keySep+"1", live("k", 4))) // a namespace no side owns
	rows, initializing := assembleViewRows(joinDefs(), "k", entriesOf(raw), nil)
	if initializing {
		t.Fatal("spurious initializing")
	}
	var got []string
	for _, vr := range rows {
		got = append(got, vr.Table+"/"+vr.BaseKey+"="+string(vr.Cells["m"].Value))
	}
	if want := []string{"a/1=a1", "a/2=a2", "b/1=b1"}; !slices.Equal(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

// Base keys of 127 and 128 bytes have frames whose uvarint lengths
// differ (one byte, two), and a key that extends another shares its
// bytes but not its frame: each must stay its own group.
func TestAssembleFrameLengths(t *testing.T) {
	k127, k128 := strings.Repeat("x", 127), strings.Repeat("x", 128)
	raw := mergeRaw(rawRow(k127, live("k", 1)), rawRow(k128, live("k", 2)),
		rawRow("x", live("k", 3)), rawRow("xx", map[string]model.Cell{ColNext: {Value: []byte("k"), TS: 3}}))
	rows, initializing := assembleViewRows(plainDefs(), "k", entriesOf(raw), nil)
	var got []string
	for _, vr := range rows {
		got = append(got, vr.BaseKey)
	}
	if want := []string{"x", k127, k128}; !slices.Equal(got, want) || !initializing {
		t.Fatalf("rows = %q (initializing %v), want %q and the unready row flagged", got, initializing, want)
	}
}

// TestAssembleMatchesMapReference checks the one-walk assembly against
// assembleViewRowsByMap, the map-based assembly it replaced, over
// random view rows: plain and join definitions, selections, projected
// columns, timestamps from zero, base keys of every frame length and
// names that are not qualified at all.
func TestAssembleMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	keys := []string{"", "b", "b1", "b10", strings.Repeat("y", 127), strings.Repeat("y", 128), "\x00", "\xff"}
	cols := []string{ColNext, ColReady, ColDeleted, ColBase, "m", "n", ""}
	viewKeys := []string{"k", "kk", "p-1"}
	cell := func(vals ...string) model.Cell {
		c := model.Cell{Value: []byte(vals[r.Intn(len(vals))]), TS: int64(r.Intn(6))}
		if r.Intn(5) == 0 {
			c = model.Cell{TS: c.TS, Tombstone: true}
		}
		return c
	}
	visible, flagged := 0, 0
	for trial := 0; trial < 3000; trial++ {
		var defs []*Def
		if r.Intn(2) == 0 {
			defs = plainDefs("m", "n")
		} else {
			defs = joinDefs()
		}
		if r.Intn(3) == 0 {
			defs[0].Selection = &Selection{Prefix: "k"}
		}
		viewKey := viewKeys[r.Intn(len(viewKeys))]
		raw := model.Row{}
		for n := r.Intn(5); n > 0; n-- {
			stored := keys[r.Intn(len(keys))]
			if len(defs) == 2 {
				stored = []string{"a", "b", "c"}[r.Intn(3)] + keySep + stored
			}
			for _, col := range cols {
				if r.Intn(3) > 0 {
					raw[model.Qualify(stored, col)] = cell(viewKey, viewKey, "other", "1")
				}
			}
		}
		if r.Intn(4) == 0 {
			raw["\xff\xff\xff"] = cell("x")
		}
		var project []string
		if r.Intn(2) == 0 {
			project = []string{"m", "n"}[:1+r.Intn(2)]
		}
		rows, initializing := assembleViewRows(defs, viewKey, entriesOf(raw), project)
		wantRows, wantInit := assembleViewRowsByMap(defs, viewKey, raw, project)
		if !reflect.DeepEqual(rows, wantRows) || initializing != wantInit {
			t.Fatalf("trial %d: got %v (initializing %v), map reference %v (%v); raw %q", trial, rows, initializing, wantRows, wantInit, raw)
		}
		visible += len(rows)
		if initializing {
			flagged++
		}
	}
	if visible < 100 || flagged < 100 {
		t.Fatalf("only %d visible rows and %d initializing reads: the generator misses the interesting cases", visible, flagged)
	}
}

// assembleViewRowsByMap is assembleViewRows as it was before whole-row
// reads returned sorted entries: the raw row as a map, taken apart
// into a map per stored key. The differential test above holds the
// one-walk version to it.
func assembleViewRowsByMap(defs []*Def, viewKey string, cells model.Row, columns []string) ([]ViewRow, bool) {
	byNS := make(map[string]*Def, len(defs))
	for _, d := range defs {
		byNS[d.namespace] = d
	}
	groups := map[string]model.Row{}
	for qual, cell := range cells {
		storedKey, col, ok := model.Unqualify(qual)
		if !ok {
			continue
		}
		g := groups[storedKey]
		if g == nil {
			g = model.Row{}
			groups[storedKey] = g
		}
		g[col] = cell
	}

	var rows []ViewRow
	initializing := false
	for storedKey, g := range groups {
		ns, baseKey := SplitStoredKey(storedKey)
		def := byNS[ns]
		if def == nil || !def.Selects(viewKey) {
			continue
		}
		next, ok := g[ColNext]
		if !ok || next.IsNull() {
			continue
		}
		if string(next.Value) != viewKey {
			continue
		}
		ready := g[ColReady]
		if !ready.Exists() || ready.Tombstone || ready.TS < next.TS {
			initializing = true
			continue
		}
		if del := g[ColDeleted]; del.Exists() && !del.Tombstone && del.TS >= next.TS {
			continue
		}
		cols := columns
		if cols == nil {
			cols = def.Materialized
		}
		vr := ViewRow{ViewKey: viewKey, Table: ns, BaseKey: baseKey, Cells: model.Row{}}
		for _, c := range cols {
			if cell, ok := g[c]; ok && !cell.IsNull() {
				vr.Cells[c] = cell
			}
		}
		rows = append(rows, vr)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Table != rows[j].Table {
			return rows[i].Table < rows[j].Table
		}
		return rows[i].BaseKey < rows[j].BaseKey
	})
	return rows, initializing
}

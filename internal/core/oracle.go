package core

import (
	"fmt"
	"sort"

	"vstore/internal/model"
)

// This file turns the paper's Definitions 1-3 into executable
// specifications. Tests drive random update sequences through random
// propagation interleavings and compare the system's observable state
// against these functions.

// ComputeView is Definition 1: given a base-table state (base key →
// cells), return the view rows that should exist — one per base row
// whose view-key column is non-NULL, keyed by that column's value,
// carrying the base key and the view-materialized cells.
func ComputeView(def *Def, base map[string]model.Row) []ViewRow {
	var out []ViewRow
	for baseKey, row := range base {
		vk, ok := row[def.ViewKeyColumn]
		if !ok || vk.IsNull() {
			continue
		}
		if !def.Selects(string(vk.Value)) {
			continue
		}
		vr := ViewRow{ViewKey: string(vk.Value), Table: def.namespace, BaseKey: baseKey, Cells: model.Row{}}
		for _, c := range def.Materialized {
			if cell, ok := row[c]; ok && !cell.IsNull() {
				vr.Cells[c] = cell
			}
		}
		out = append(out, vr)
	}
	SortViewRows(out)
	return out
}

// SortViewRows orders rows by (view key, base key) for deterministic
// comparison.
func SortViewRows(rows []ViewRow) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].ViewKey != rows[j].ViewKey {
			return rows[i].ViewKey < rows[j].ViewKey
		}
		if rows[i].Table != rows[j].Table {
			return rows[i].Table < rows[j].Table
		}
		return rows[i].BaseKey < rows[j].BaseKey
	})
}

// BaseUpdate is one propagated base-table update, the unit of
// Definition 2's Un sequence.
type BaseUpdate struct {
	BaseKey string
	Column  string
	Cell    model.Cell
}

// ApplyUpdates is the state-evolution step of Definition 2: apply the
// updates to a copy of the base state in LWW (timestamp) order —
// which, because cell merge is order-insensitive, is just a fold.
func ApplyUpdates(base map[string]model.Row, updates []BaseUpdate) map[string]model.Row {
	next := make(map[string]model.Row, len(base))
	for k, row := range base {
		next[k] = row.Clone()
	}
	for _, u := range updates {
		row := next[u.BaseKey]
		if row == nil {
			row = model.Row{}
			next[u.BaseKey] = row
		}
		if old, ok := row[u.Column]; ok {
			row[u.Column] = model.Merge(old, u.Cell)
		} else {
			row[u.Column] = u.Cell
		}
	}
	return next
}

// ExpectedView is Definition 2 end to end: the correct (non-versioned)
// view contents after exactly the given updates have propagated,
// starting from base state base0.
func ExpectedView(def *Def, base0 map[string]model.Row, propagated []BaseUpdate) []ViewRow {
	return ComputeView(def, ApplyUpdates(base0, propagated))
}

// --- Versioned-view invariant checking (Definition 3) ----------------------

// VersionedRow is the raw (pre-filtering) content of one base row's
// entry within one view row, reconstructed from storage for
// verification.
type VersionedRow struct {
	ViewKey string
	BaseKey string
	Next    model.Cell
	Ready   model.Cell
	Deleted model.Cell
	Prev    model.Cell // the promotion's redo intent (ColPrev)
	Cells   model.Row  // view-materialized data
}

// Live reports a chain terminus: the row's pointer names the row itself.
func (r VersionedRow) Live() bool { return !r.Next.IsNull() && string(r.Next.Value) == r.ViewKey }

// Published reports whether the ready marker is as fresh as the pointer;
// until then a live row is still being initialized (Section IV-F).
func (r VersionedRow) Published() bool {
	return r.Ready.Exists() && !r.Ready.Tombstone && r.Ready.TS >= r.Next.TS
}

// Suppressed reports a deletion marker as fresh as the pointer: the
// base row's view key was deleted while this row was live.
func (r VersionedRow) Suppressed() bool {
	return r.Deleted.Exists() && !r.Deleted.Tombstone && r.Deleted.TS >= r.Next.TS
}

// Visible reports whether a view read returns the row: live, published,
// not suppressed, and not a versioning anchor.
func (r VersionedRow) Visible() bool {
	return r.Live() && r.Published() && !r.Suppressed() && !IsInternalKey(r.ViewKey)
}

// Chains groups a versioned view's linked rows (those with a pointer) by
// base key, then view key.
func Chains(rows []VersionedRow) map[string]map[string]VersionedRow {
	byBase := map[string]map[string]VersionedRow{}
	for _, r := range rows {
		if r.Next.IsNull() {
			continue // never linked (e.g. only data cells written)
		}
		if byBase[r.BaseKey] == nil {
			byBase[r.BaseKey] = map[string]VersionedRow{}
		}
		byBase[r.BaseKey][r.ViewKey] = r
	}
	return byBase
}

// FollowChain follows pointers from view key vk through one base key's
// chain and returns the row it stopped at and the hops it took. It stops
// at a live row, at a key the chain has no row for (a dangling pointer),
// or, with hops > len(chain), because the pointers cycle.
func FollowChain(chain map[string]VersionedRow, vk string) (end string, hops int) {
	for end = vk; hops <= len(chain); hops++ {
		r, ok := chain[end]
		if !ok || r.Live() {
			break
		}
		end = string(r.Next.Value)
	}
	return end, hops
}

// DecodeVersionedView reconstructs the versioned view structure from a
// view table's merged storage entries.
func DecodeVersionedView(entries []model.Entry) ([]VersionedRow, error) {
	type key struct{ viewKey, baseKey string }
	rows := map[key]*VersionedRow{}
	for _, e := range entries {
		viewKey, qual, err := model.DecodeKey(e.Key)
		if err != nil {
			return nil, fmt.Errorf("core: bad storage key: %w", err)
		}
		baseKey, col, ok := model.Unqualify(qual)
		if !ok {
			return nil, fmt.Errorf("core: bad qualified column %q", qual)
		}
		k := key{viewKey, baseKey}
		r := rows[k]
		if r == nil {
			r = &VersionedRow{ViewKey: viewKey, BaseKey: baseKey, Next: model.NullCell, Ready: model.NullCell, Deleted: model.NullCell, Prev: model.NullCell, Cells: model.Row{}}
			rows[k] = r
		}
		switch col {
		case ColNext:
			r.Next = e.Cell
		case ColReady:
			r.Ready = e.Cell
		case ColDeleted:
			r.Deleted = e.Cell
		case ColPrev:
			r.Prev = e.Cell
		case ColBase:
			// implied by the qualifier; ignored
		default:
			r.Cells[col] = e.Cell
		}
	}
	out := make([]VersionedRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].BaseKey != out[j].BaseKey {
			return out[i].BaseKey < out[j].BaseKey
		}
		return out[i].ViewKey < out[j].ViewKey
	})
	return out, nil
}

// CheckVersionedInvariants verifies the structural requirements of
// Definition 3 on a quiesced versioned view:
//
//   - per base key there is exactly one live row (self-pointing Next),
//     and it is ready;
//   - every stale row's Next chain reaches that live row without
//     cycles;
//   - the live row's key matches expectedLive (pass nil to skip the
//     content check).
func CheckVersionedInvariants(rows []VersionedRow, expectedLive map[string]string) error {
	byBase := Chains(rows)
	for baseKey, chain := range byBase {
		var live []string
		for vk, r := range chain {
			if r.Live() {
				live = append(live, vk)
			}
		}
		if len(live) != 1 {
			return fmt.Errorf("core: base row %q has %d live rows %v, want exactly 1", baseKey, len(live), live)
		}
		if lr := chain[live[0]]; !lr.Published() {
			return fmt.Errorf("core: base row %q live row %q not ready (%v vs next %v)", baseKey, live[0], lr.Ready, lr.Next)
		}
		for vk := range chain {
			end, hops := FollowChain(chain, vk)
			if hops > len(chain) {
				return fmt.Errorf("core: base row %q has a pointer cycle from %q", baseKey, vk)
			}
			if _, ok := chain[end]; !ok {
				return fmt.Errorf("core: base row %q chain from %q dangles at %q", baseKey, vk, end)
			}
			if end != live[0] {
				return fmt.Errorf("core: base row %q chain from %q ends at %q, want live %q", baseKey, vk, end, live[0])
			}
		}
		if expectedLive != nil {
			want, ok := expectedLive[baseKey]
			if !ok {
				return fmt.Errorf("core: unexpected view rows for base row %q", baseKey)
			}
			if live[0] != want {
				return fmt.Errorf("core: base row %q live key %q, want %q", baseKey, live[0], want)
			}
		}
	}
	if expectedLive != nil {
		for baseKey := range expectedLive {
			if byBase[baseKey] == nil {
				return fmt.Errorf("core: base row %q missing from versioned view", baseKey)
			}
		}
	}
	return nil
}

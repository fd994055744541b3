package sim

// Continuously-checked invariants (run inside the scheduler loop) and
// the end-of-run oracle. The continuous checks are careful about what
// is actually invariant mid-flight: chain acyclicity always holds, but
// "exactly one live row" has a legitimate transient window between a
// propagation's redirect and its ready-publish — so the per-key
// structural and read-your-writes checks only fire for base keys with
// no outstanding write and no in-flight propagation.

import (
	"fmt"
	"sort"

	"vstore/internal/antientropy"
	"vstore/internal/core"
	"vstore/internal/model"
	"vstore/internal/sstable"
	"vstore/internal/transport"
)

// viewRowsOf decodes a view table's merged storage across every node
// into versioned rows (sorted, deterministic).
func (w *world) viewRowsOf(table string) ([]core.VersionedRow, error) {
	runs := make([][]model.Entry, 0, len(w.nodes))
	for _, n := range w.nodes {
		runs = append(runs, n.TableSnapshot(table))
	}
	return core.DecodeVersionedView(sstable.MergeRuns(runs, false))
}

// oracleDefs lists the views the invariants judge right now: byview
// always; the backfilled view once it finished its scan (before that,
// missing rows are the legitimate state of an incomplete fill —
// acyclicity still covers it via oracleViewTables).
func (w *world) oracleDefs() []*core.Def {
	defs := []*core.Def{w.def}
	if w.bfLive {
		defs = append(defs, w.bfDef)
	}
	return defs
}

// oracleViewTables lists view tables for structural checks that hold
// at every instant, scan complete or not.
func (w *world) oracleViewTables() []string {
	ts := []string{viewTable}
	if w.bfActive {
		ts = append(ts, w.bfDef.Name)
	}
	return ts
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// checkAcyclic asserts that no base key's Next pointers form a cycle.
// This holds at every instant: pointers only ever move to rows written
// at dominating timestamps, so a cycle means corruption. Dangling
// pointers and multiple self-pointing rows are tolerated here — they
// are legitimate transients of in-flight propagations.
func (w *world) checkAcyclic() error {
	for _, table := range w.oracleViewTables() {
		rows, err := w.viewRowsOf(table)
		if err != nil {
			return err
		}
		byBase := core.Chains(rows)
		for _, baseKey := range sortedKeys(byBase) {
			chain := byBase[baseKey]
			for _, vk := range sortedKeys(chain) {
				if _, hops := core.FollowChain(chain, vk); hops > len(chain) {
					return fmt.Errorf("view %q base row %q has a pointer cycle from view key %q", table, baseKey, vk)
				}
			}
		}
	}
	return nil
}

// foldVK returns the LWW winner of every acknowledged view-key update
// for a base key (NullCell when none was ever acknowledged).
func (w *world) foldVK(bk string) model.Cell {
	out := model.NullCell
	for _, u := range w.acked {
		if u.BaseKey == bk && u.Column == vkCol {
			out = model.Merge(out, u.Cell)
		}
	}
	return out
}

// checkQuiescentRows runs the full Definition-3 oracle per base key,
// but only for keys that are quiescent right now (no un-acked client
// write, no in-flight propagation): exactly one live ready row, every
// chain terminates at it, and — the session guarantee — the live row is
// exactly the LWW winner of the acknowledged view-key writes
// (read-your-writes for every client at once).
func (w *world) checkQuiescentRows() error {
	byDef := map[string]map[string]map[string]core.VersionedRow{} // def name → base → chain
	seen := map[string]bool{}
	for _, u := range w.acked {
		bk := u.BaseKey
		if seen[bk] || !w.quiescent(bk) {
			seen[bk] = true
			continue
		}
		seen[bk] = true
		for _, def := range w.oracleDefs() {
			byBase, ok := byDef[def.Name]
			if !ok {
				rows, err := w.viewRowsOf(def.Name)
				if err != nil {
					return err
				}
				byBase = core.Chains(rows)
				byDef[def.Name] = byBase
			}
			if err := w.checkBaseKey(def, bk, byBase[bk]); err != nil {
				return err
			}
		}
	}
	return nil
}

// quiescent reports whether nothing is owed to base key bk right now: no
// un-acked client write, no recovered intent waiting to be re-enqueued,
// and — read from the ledger the managers themselves keep — no
// propagation in flight.
func (w *world) quiescent(bk string) bool {
	return w.pendingOps[bk] == 0 && w.replaying[bk] == 0 && w.reg.PendingOn(bk) == 0
}

// checkBaseKey verifies one quiescent base key's chain against the fold
// of its acknowledged updates.
func (w *world) checkBaseKey(def *core.Def, bk string, chain map[string]core.VersionedRow) error {
	winner := w.foldVK(bk)
	wantLive := winner.Exists() && !winner.Tombstone && def.Selects(string(winner.Value))

	if len(chain) == 0 {
		if wantLive {
			return fmt.Errorf("base row %q: acknowledged view key %q fully propagated but no view rows exist", bk, winner.Value)
		}
		return nil
	}
	filtered := make([]core.VersionedRow, 0, len(chain))
	for _, vk := range sortedKeys(chain) {
		filtered = append(filtered, chain[vk])
	}
	// Structural Definition-3 checks: exactly one live+ready row, all
	// chains acyclic and terminating at it.
	if err := core.CheckVersionedInvariants(filtered, nil); err != nil {
		return err
	}
	var visRows []core.VersionedRow
	for _, r := range filtered {
		if r.Visible() {
			visRows = append(visRows, r)
		}
	}
	if !wantLive {
		if len(visRows) != 0 {
			return fmt.Errorf("base row %q: view key deleted/never set but row %q is visible", bk, visRows[0].ViewKey)
		}
		return nil
	}
	if len(visRows) != 1 {
		return fmt.Errorf("base row %q: %d visible rows, want exactly 1 (winner %q)", bk, len(visRows), winner.Value)
	}
	if visRows[0].ViewKey != string(winner.Value) {
		return fmt.Errorf("base row %q: visible under %q, but last acknowledged write was %q (read-your-writes)", bk, visRows[0].ViewKey, winner.Value)
	}
	return nil
}

// finalCheck is the end-of-run oracle, after the drain and final
// anti-entropy rounds: nothing still in flight, replicas converged,
// the versioned view structurally valid, and the visible rows exactly
// ComputeView (Definition 1) of the acknowledged base state.
func (w *world) finalCheck() error {
	for bk, n := range w.pendingOps {
		if n != 0 {
			return fmt.Errorf("drained with %d un-acked writes for base row %q", n, bk)
		}
	}
	for bk, n := range w.replaying {
		if n != 0 {
			return fmt.Errorf("drained with %d recovered intents of base row %q never re-enqueued", n, bk)
		}
	}
	if n := w.reg.Pending(); n != 0 {
		return fmt.Errorf("drained with %d propagations still in flight", n)
	}
	// The retry budget is far beyond the run: a propagation the shipping
	// loop gave up on is a view left stale for good.
	for _, m := range w.everyMgr {
		if n := m.Stats().Abandoned.Load(); n != 0 {
			return fmt.Errorf("%d propagations were abandoned", n)
		}
	}

	// Replica convergence, via the same digests anti-entropy uses.
	for _, table := range w.syncTables() {
		for i := 0; i < len(w.nodes); i++ {
			for j := i + 1; j < len(w.nodes); j++ {
				diverged, err := antientropy.Diverged(w.nodes[i], w.nodes[j], table, 32)
				if err != nil {
					return err
				}
				if diverged {
					return fmt.Errorf("nodes %d and %d diverged on table %q after anti-entropy", i, j, table)
				}
			}
		}
	}

	if err := w.checkAckedWrites(); err != nil {
		return err
	}

	// Content: visible rows == Definition 1 over the acknowledged
	// updates.
	_, actual, err := w.checkView(w.def)
	if err != nil {
		return err
	}
	expected := core.ComputeView(w.def, core.ApplyUpdates(map[string]model.Row{}, w.acked))
	w.report.FinalViewRows = len(actual)
	if err := compareViewRows("final view", "oracle", actual, expected, w.def.Materialized); err != nil {
		return err
	}

	return w.checkBackfillCompleteness(actual)
}

// checkView runs the structural and per-key oracle over one quiesced view
// and returns its rows and, sorted, its application-visible rows.
func (w *world) checkView(def *core.Def) ([]core.VersionedRow, []core.ViewRow, error) {
	rows, err := w.viewRowsOf(def.Name)
	if err == nil {
		err = core.CheckVersionedInvariants(rows, nil)
	}
	if err != nil {
		return nil, nil, err
	}
	byBase := core.Chains(rows)
	for _, bk := range sortedKeys(byBase) {
		if err := w.checkBaseKey(def, bk, byBase[bk]); err != nil {
			return nil, nil, err
		}
	}
	var out []core.ViewRow
	for _, r := range rows {
		if !r.Visible() {
			continue
		}
		vr := core.ViewRow{ViewKey: r.ViewKey, BaseKey: r.BaseKey, Cells: model.Row{}}
		for _, c := range def.Materialized {
			if cell, ok := r.Cells[c]; ok && !cell.IsNull() {
				vr.Cells[c] = cell
			}
		}
		out = append(out, vr)
	}
	core.SortViewRows(out)
	return rows, out, nil
}

// compareViewRows requires two visible-row sets to be cell-identical:
// same (view key, base key) rows, and every materialized cell equal —
// value and timestamp.
func compareViewRows(gotName, wantName string, got, want []core.ViewRow, mat []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s has %d rows, %s has %d", gotName, len(got), wantName, len(want))
	}
	for i := range want {
		e, a := want[i], got[i]
		if e.ViewKey != a.ViewKey || e.BaseKey != a.BaseKey {
			return fmt.Errorf("%s row %d is (%q,%q), %s has (%q,%q)", gotName, i, a.ViewKey, a.BaseKey, wantName, e.ViewKey, e.BaseKey)
		}
		for _, c := range mat {
			ec, ea := e.Cells[c], a.Cells[c]
			if !ec.Equal(ea) {
				return fmt.Errorf("%s row (%q,%q) column %q: got %v, %s has %v", gotName, a.ViewKey, a.BaseKey, c, ea, wantName, ec)
			}
		}
	}
	return nil
}

// checkBackfillCompleteness is the backfill oracle: after quiescence, a
// view backfilled mid-run must be cell-identical to the from-birth view
// of the same definition — same rows, same materialized cells, same
// timestamps. byviewVisible is the from-birth view's visible rows (the
// content oracle just validated them against Definition 1).
func (w *world) checkBackfillCompleteness(byviewVisible []core.ViewRow) error {
	if !w.bfActive {
		return nil // never created, or dropped without re-create: nothing owed
	}
	if !w.bfLive {
		return fmt.Errorf("backfill-completeness: view %q drained without finishing its scan (%d/%d partitions)",
			w.bfDef.Name, len(w.bfDone), w.cfg.Nodes)
	}
	rows, bfVisible, err := w.checkView(w.bfDef)
	if err == nil {
		err = compareViewRows("backfilled view", "from-birth view", bfVisible, byviewVisible, w.bfDef.Materialized)
	}
	if err == nil {
		err = w.checkLateFence(rows)
	}
	if err != nil {
		return fmt.Errorf("backfill-completeness: %w", err)
	}
	return nil
}

// checkLateFence: Algorithm 2 leaves a row, live or stale, for every
// view-key update it propagates, so every view-key write acknowledged
// after the define has one — via Manager.lateTasks if need be. Judged in
// fault-free runs only: a late task whose pre-read fails is dropped.
func (w *world) checkLateFence(rows []core.VersionedRow) error {
	if c := w.cfg; w.durable || c.DropProb >= 0 || c.Crashes >= 0 || c.Partitions >= 0 {
		return nil
	}
	have := map[[2]string]bool{}
	for _, r := range rows {
		have[[2]string{r.BaseKey, r.ViewKey}] = true
	}
	for _, u := range w.acked[w.bfSince:] {
		if u.Column == vkCol && !u.Cell.Tombstone && !have[[2]string{u.BaseKey, string(u.Cell.Value)}] {
			return fmt.Errorf("view-key write %s=%q (ts %d) was acknowledged after the view was defined but has no row in it", u.BaseKey, u.Cell.Value, u.Cell.TS)
		}
	}
	return nil
}

// checkAckedWrites is the part of every acknowledged write a client
// can see after quiescence: each replica of its row holds a cell at its
// column that the write does not beat, the write itself or a newer one.
// Checked on every replica, not a quorum: the final anti-entropy rounds
// must have spread each winner. A replica that lost a write that is
// still the winner, or a write lost everywhere, fails here.
func (w *world) checkAckedWrites() error {
	for _, u := range w.acked {
		if ids, held := w.holding(u); len(held) < len(ids) {
			return fmt.Errorf("acknowledged write lost: of %s.%s's replicas %v only %v hold %v or a newer cell",
				u.BaseKey, u.Column, ids, held, u.Cell)
		}
	}
	return nil
}

// holding returns the replicas of u's row, and those of them that hold a
// cell at u's column that u does not beat.
func (w *world) holding(u core.BaseUpdate) (ids, held []transport.NodeID) {
	key := string(model.EncodeKey(u.BaseKey, u.Column))
	ids = w.coords[0].ReplicasFor(baseTable, u.BaseKey)
	for _, id := range ids {
		cell := model.NullCell
		for _, e := range w.nodes[id].TableSnapshot(baseTable) {
			if string(e.Key) == key {
				cell = e.Cell
			}
		}
		if !u.Cell.Wins(cell) {
			held = append(held, id)
		}
	}
	return ids, held
}

// checkPendingGauge ties the ledger — the one record of the
// propagations in flight, which the staleness gauges and the quiescence
// gating above read — to a record kept apart from it: every manager,
// the managers of dead incarnations included, whose last rounds may
// still be running, has exactly one ledger entry per back-pressure slot
// its propagations hold. A propagation that left the ledger early, or
// never, shows as drift.
func (w *world) checkPendingGauge() error {
	for i, m := range w.everyMgr {
		if n, slots := m.PendingPropagations(), m.SlotsHeld(); n != slots {
			return fmt.Errorf("staleness gauge drift: manager %d has %d ledger entries but holds %d back-pressure slots", i, n, slots)
		}
	}
	return nil
}

// checkBaseCells asserts that every cell in any replica's base table is
// a cell some client sent for exactly that row and column. Nothing but
// client writes — and the repairs, hints and anti-entropy that copy them
// — ever writes the base table, so anything else is a write-back that
// landed under the wrong key.
func (w *world) checkBaseCells() error {
	for _, n := range w.nodes {
	next:
		for _, e := range n.TableSnapshot(baseTable) {
			for _, c := range w.issued[string(e.Key)] {
				if c.Equal(e.Cell) {
					continue next
				}
			}
			row, col, _ := model.DecodeKey(e.Key)
			return fmt.Errorf("node %d holds base cell %s.%s = %v, which no client wrote", n.ID(), row, col, e.Cell)
		}
	}
	return nil
}

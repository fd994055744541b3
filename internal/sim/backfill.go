package sim

// The online-backfill scenario: a second materialized view ("bf",
// identical in shape to the from-birth byview) is defined mid-run and
// filled by scanning every node's base-table partition while clients
// keep writing. Each scanned row goes through the node's real
// core.Manager (BackfillPropagate) — a backfill write is just a
// propagation of the row's current quorum-merged state, so a racing
// live update resolves by LWW exactly like two concurrent propagations
// would (the backfilled cells carry the original base timestamps and
// lose to anything newer).
// The coverage argument is the same fence DB.CreateViewAsync relies on:
// writes acked before the view existed are quorum-visible to the scan's
// reads; writes acked after it find the view in the catalog — at the
// latest in Manager.Put's post-ack check — and propagate themselves.
//
// In durable mode the scans checkpoint their cursor through the node's
// physical backend (the same backfill.Store the real DB uses) and a
// crash-restart resumes from the checkpoint — a lost checkpoint only
// widens the rescan, never loses rows, because fills are idempotent.
//
// What is the simulator's own here is the scan loop (the production
// backfill.Controller is not under the oracle yet) and the generations:
// every drop + re-create gets a fresh table name ("bf1", "bf2", ...), so
// the final oracle judges one incarnation's table.

import (
	"context"
	"fmt"
	"time"

	"vstore/internal/backfill"
	"vstore/internal/coord"
	"vstore/internal/core"
	"vstore/internal/model"
	"vstore/internal/transport"
)

// activateBF defines a new backfilled-view generation in the shared
// catalog and starts one scan proc per node partition.
func (w *world) activateBF() {
	w.bfGen++
	name := fmt.Sprintf("bf%d", w.bfGen)
	err := w.reg.Define(core.Def{Name: name, Base: baseTable, ViewKeyColumn: vkCol, Materialized: []string{matCol}})
	if err != nil {
		w.s.Fail(fmt.Errorf("view-create: %w", err))
		return
	}
	w.reg.SetBackfilling(name, true)
	w.bfDef, _ = w.reg.View(name)
	w.bfCtx, w.bfDrop = context.WithCancel(context.Background())
	w.bfActive, w.bfLive = true, false
	w.bfDone = map[transport.NodeID]bool{}
	w.s.Record("view-create", name)
	for _, n := range w.nodes {
		w.startBackfillScan(n.ID(), "backfill")
	}
}

// dropBF drops the current generation from the catalog: its fills and
// scans end with their context, propagations into it end at their next
// attempt, the table is wiped on every node, checkpoints are cleared.
func (w *world) dropBF() {
	if !w.bfActive {
		return
	}
	name := w.bfDef.Name
	w.bfDrop()
	if err := w.reg.Drop(name); err != nil {
		w.s.Fail(fmt.Errorf("view-drop: %w", err))
	}
	w.bfActive, w.bfLive = false, false
	w.report.ViewDrops++
	w.report.BackfillLive = false
	for i, n := range w.nodes {
		// Best-effort teardown (error assigned to _ deliberately): a
		// failed wipe leaves garbage in an abandoned table the oracle
		// never reads.
		_ = n.DropTable(name)
		if w.durable {
			_ = backfill.NewPhysicalStore(w.backends[i]).Clear(name)
		}
	}
	w.s.Record("view-drop", name)
}

// startBackfillScan starts node id's scan of the current generation,
// under a context that ends when the generation is dropped or the node
// dies (crashRestart cancels it and starts the successor's).
func (w *world) startBackfillScan(id transport.NodeID, kind string) {
	ctx, cancel := context.WithCancel(w.bfCtx)
	w.scanStop[id] = cancel
	def := w.bfDef
	w.s.Go(0, fmt.Sprintf("%s node %d view %s", kind, id, def.Name), func() {
		w.runBackfillScan(ctx, id, def)
	})
}

// runBackfillScan walks one node's base-table partition for one view
// generation, filling each row and checkpointing the cursor after each
// page, until the partition is exhausted or ctx ends.
func (w *world) runBackfillScan(ctx context.Context, id transport.NodeID, def *core.Def) {
	var store backfill.Store
	if w.durable {
		store = backfill.NewPhysicalStore(w.backends[id])
	}
	cursor := ""
	if store != nil {
		if cp, ok, err := store.Load(def.Name); err == nil && ok {
			for _, m := range cp.Marks {
				if m.Base == baseTable && m.Node == int(id) {
					if m.Done {
						w.bfScanFinished(def, id)
						return
					}
					cursor = m.Cursor
				}
			}
		}
	}
	save := func(done bool) {
		if store == nil {
			return
		}
		// Error assigned to _ deliberately: checkpoints are an
		// optimization — losing one widens the rescan, and fills are
		// idempotent.
		_ = store.Save(backfill.Checkpoint{View: def.Name, Marks: []backfill.PartitionMark{
			{Base: baseTable, Node: int(id), Cursor: cursor, Done: done},
		}})
	}
	// The incarnation of the node the scan runs on; it dies with it.
	n, co, mgr := w.nodes[id], w.coords[id], w.mgrs[id]
	const batch = 4
	for ctx.Err() == nil {
		rows := n.ScanTableRows(baseTable, cursor, batch)
		if len(rows) == 0 {
			save(true)
			w.bfScanFinished(def, id)
			return
		}
		for _, bk := range rows {
			w.report.BackfillRowsScanned++
			if !w.fillRow(ctx, co, mgr, def, bk) {
				return
			}
		}
		cursor = rows[len(rows)-1]
		save(false)
		// Throttle: yield a beat so live writes interleave with the scan.
		w.s.Sleep(2 * time.Millisecond)
	}
}

// bfScanFinished marks one partition complete; when all partitions of
// the current generation are done the view is live.
func (w *world) bfScanFinished(def *core.Def, id transport.NodeID) {
	if !w.bfActive || w.bfDef != def || w.bfDone[id] {
		return
	}
	w.bfDone[id] = true
	if len(w.bfDone) == w.cfg.Nodes {
		w.bfLive = true
		w.report.BackfillLive = true
		w.reg.SetBackfilling(def.Name, false)
		w.s.Record("backfill-live", def.Name)
	}
}

// fillRow propagates one base row's current state into the backfilled
// view, like the real DB's filler: quorum-read the row through the
// node's coordinator, then run its view-key and materialized cells
// through one regular propagation (Manager.BackfillPropagate — creating
// or promoting the view row and seeding its data). The fill — fresh read
// plus propagation, idempotent — is re-issued until it goes through;
// false means the scan's context ended first.
func (w *world) fillRow(ctx context.Context, co *coord.Coordinator, mgr *core.Manager, def *core.Def, bk string) bool {
	backoff := time.Millisecond
	for attempt := 0; ctx.Err() == nil; attempt++ {
		if attempt > 2000 {
			w.s.Fail(fmt.Errorf("backfill of base %q into %q stuck after %d attempts", bk, def.Name, attempt))
			return false
		}
		merged, err := co.Get(ctx, baseTable, bk, []string{vkCol, matCol}, w.majority(), false)
		if err == nil {
			vk, ok := merged[vkCol]
			if !ok || !vk.Exists() {
				// No acknowledged view-key write is visible at the quorum:
				// no view row to create. A concurrent unacked write
				// propagates itself once it is acked.
				return true
			}
			vk.StripDot() // derived state from here on, not a client's causal event
			updates := []model.ColumnUpdate{{Column: vkCol, Cell: vk}}
			if mat, ok := merged[matCol]; ok && !mat.IsNull() {
				mat.StripDot()
				updates = append(updates, model.ColumnUpdate{Column: matCol, Cell: mat})
			}
			if err = mgr.BackfillPropagate(ctx, def, bk, updates); err == nil {
				w.report.BackfillFills++
				return true
			}
		}
		w.s.Backoff(&backoff, 16*time.Millisecond)
	}
	return false
}

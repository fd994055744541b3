package sim

// The online-backfill scenario: a second view ("bf", shaped like byview)
// is defined mid-run and backfilled by the production backfill.Controller
// while clients keep writing. Each node incarnation runs one controller on
// its coordinator — scans and fills are coord.Go processes, waits park
// through coord.Park, the throttle and back-offs are scheduler timers —
// over one partition, the node's base rows, each filled by the node's
// Manager.BackfillRow. In durable mode it checkpoints through the node's
// backend, and a crash-restart's successor resumes through the production
// checkpoint Load. What is the simulator's own is the generations (every
// drop + re-create gets a fresh table, "bf1", "bf2", ..., so the final
// oracle judges one incarnation's) and the rule that the view is live once
// every node's controller has fired OnLive.

import (
	"context"
	"fmt"
	"time"

	"vstore/internal/backfill"
	"vstore/internal/core"
	"vstore/internal/transport"
)

// newBackfill returns the backfill controller of node id's current
// incarnation.
func (w *world) newBackfill(id transport.NodeID) *backfill.Controller {
	opts := backfill.Options{Clock: simClock{w.s}, BatchSize: 2, Throttle: 5 * time.Millisecond,
		OnLive: func(view string) { w.bfPartitionLive(id, view) }}
	if w.durable {
		opts.Store = backfill.NewPhysicalStore(w.backends[id])
	}
	return backfill.New(w.coords[id], opts)
}

// activateBF defines a new backfilled-view generation in the shared
// catalog — bf1 at first, each re-create after a drop the next — and
// starts every node's controller on it.
func (w *world) activateBF() {
	name := fmt.Sprintf("bf%d", w.report.ViewDrops+1)
	err := w.reg.Define(core.Def{Name: name, Base: baseTable, ViewKeyColumn: vkCol, Materialized: []string{matCol}})
	if err != nil {
		w.s.Fail(fmt.Errorf("view-create: %w", err))
		return
	}
	w.reg.SetBackfilling(name, true)
	w.bfDef, _ = w.reg.View(name)
	w.bfActive, w.bfLive = true, false
	w.bfDone, w.bfSince = map[transport.NodeID]bool{}, len(w.acked)
	w.s.Record("view-create", name)
	for id := range w.nodes {
		w.startBF(transport.NodeID(id))
	}
}

// startBF starts node id's controller on the current generation, unless
// it already runs it (a re-create can come while a crash-restart waits
// out the dead controller).
func (w *world) startBF(id transport.NodeID) {
	n, mgr, name := w.nodes[id], w.mgrs[id], w.bfDef.Name
	if _, started := w.bfs[id].State(name); started {
		return
	}
	if w.bfAcct == nil {
		w.bfAcct = w.s.openAccount(classBackfill)
	}
	// What Start spawns — the scan, its fills — is charged to the
	// backfill account; the caller's account is back on return.
	defer w.s.chargeTo(w.s.chargeTo(w.bfAcct))
	part := backfill.Partition{Base: baseTable, Node: int(id), Scan: func(after string, limit int) []string {
		return n.ScanTableRows(baseTable, after, limit)
	}}
	fill := func(ctx context.Context, base, row string) error { return mgr.BackfillRow(ctx, name, base, row) }
	if err := w.bfs[id].Start(name, int64(w.s.Now()/time.Microsecond), []backfill.Partition{part}, fill); err != nil {
		w.s.Fail(fmt.Errorf("backfill of %s on node %d: %w", name, id, err))
	}
}

// bfPartitionLive is a controller's OnLive: node id's partition of view
// is scanned. Once every node's partition of the current generation is,
// the view is live.
func (w *world) bfPartitionLive(id transport.NodeID, view string) {
	if !w.bfActive || view != w.bfDef.Name || w.bfDone[id] {
		return
	}
	w.bfDone[id] = true
	if len(w.bfDone) == w.cfg.Nodes {
		w.bfLive = true
		w.reg.SetBackfilling(view, false)
		w.s.Record("backfill-live", view)
	}
}

// dropBF drops the current generation from the catalog — propagations
// into it end at their next attempt — then, node by node, its backfill
// (Drop parks until the scan has stopped, and clears the checkpoint) and
// its table. It runs as a process, because Drop parks.
func (w *world) dropBF() {
	if !w.bfActive {
		return
	}
	name := w.bfDef.Name
	if err := w.reg.Drop(name); err != nil {
		w.s.Fail(fmt.Errorf("view-drop: %w", err))
	}
	w.bfActive, w.bfLive = false, false
	w.report.ViewDrops++
	w.s.Record("view-drop", name)
	for id := range w.nodes {
		w.bfs[id].Drop(name)
		// Best-effort teardown (error assigned to _ deliberately): a failed
		// wipe leaves garbage in an abandoned table the oracle never reads.
		_ = w.nodes[id].DropTable(name)
	}
}

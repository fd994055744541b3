package sim

// The online-backfill scenario: a second materialized view ("bf",
// identical in shape to the from-birth byview) is defined mid-run and
// filled by scanning every node's base-table partition while clients
// keep writing. Each scanned row is routed through the regular
// propagation protocol (core.Round) — a backfill write is just a
// propagation of the row's current quorum-merged state, so a racing
// live update resolves by LWW exactly like two concurrent propagations
// would (the backfilled cells carry the original base timestamps and
// lose to anything newer).
// The coverage argument is the same fence DB.CreateViewAsync relies on:
// writes acked before the view existed are quorum-visible to the scan's
// reads; writes acked after it get their own ack-time propagation.
//
// In durable mode the scans checkpoint their cursor through the node's
// physical backend (the same backfill.Store the real DB uses) and a
// crash-restart resumes from the checkpoint — a lost checkpoint only
// widens the rescan, never loses rows, because fills are idempotent.
//
// Drop + re-create uses table-incarnation semantics: every generation
// gets a fresh table name ("bf1", "bf2", ...), so a write raced out of
// a dropped generation's in-flight propagation lands in the abandoned
// table instead of corrupting its successor — the final oracle only
// judges the current generation.

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

// propTarget is one view a propagation must maintain, decided at ack
// (or intent-replay) time.
type propTarget struct {
	def   *core.Def
	alive func() bool // nil = the view can never be dropped
	// fresh: the view never saw this write's pre-read; it collects its
	// own guess pool (NULL plus fresh replica reads) instead of the
	// pre-image pool (whose stale-live guesses may name rows this view
	// has not backfilled yet and never will).
	fresh bool
}

// propTargets is the set of views active right now.
func (w *world) propTargets() []propTarget {
	ts := []propTarget{{def: w.def}}
	if w.bfActive {
		ts = append(ts, propTarget{def: w.bfDef, alive: w.bfAliveFn(w.bfGen), fresh: true})
	}
	return ts
}

// bfAliveFn pins a generation: the target dies when the view is
// dropped or superseded.
func (w *world) bfAliveFn(gen int) func() bool {
	return func() bool { return w.bfActive && w.bfGen == gen }
}

// activateBF defines a new backfilled-view generation and starts one
// scan proc per node partition.
func (w *world) activateBF() {
	w.bfGen++
	w.bfActive = true
	w.bfLive = false
	w.bfDef = &core.Def{
		Name:          fmt.Sprintf("bf%d", w.bfGen),
		Base:          baseTable,
		ViewKeyColumn: vkCol,
		Materialized:  []string{matCol},
	}
	w.bfDone = map[transport.NodeID]bool{}
	w.s.Record("view-create", w.bfDef.Name)
	gen := w.bfGen
	for _, n := range w.nodes {
		id := n.ID()
		w.s.Go(0, fmt.Sprintf("backfill node %d gen %d", id, gen), func() {
			w.runBackfillScan(id, gen)
		})
	}
}

// dropBF drops the current generation: in-flight propagations and
// scans targeting it abort at their next liveness check, the table is
// wiped on every node, checkpoints are cleared.
func (w *world) dropBF() {
	if !w.bfActive {
		return
	}
	name := w.bfDef.Name
	w.bfActive = false
	w.bfLive = false
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

// runBackfillScan walks one node's base-table partition for one view
// generation, filling each row and checkpointing the cursor after each
// page. It exits when the generation is dropped or the node
// crash-restarts (the restart respawns it from the checkpoint).
func (w *world) runBackfillScan(id transport.NodeID, gen int) {
	epoch, co := w.epochs[id], w.coords[id]
	alive := w.bfAliveFn(gen)
	name := w.bfDef.Name
	var store backfill.Store
	if w.durable {
		store = backfill.NewPhysicalStore(w.backends[id])
	}
	cursor := ""
	if store != nil {
		if cp, ok, err := store.Load(name); err == nil && ok {
			for _, m := range cp.Marks {
				if m.Base == baseTable && m.Node == int(id) {
					if m.Done {
						w.bfScanFinished(gen, id)
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
		_ = store.Save(backfill.Checkpoint{View: name, Marks: []backfill.PartitionMark{
			{Base: baseTable, Node: int(id), Cursor: cursor, Done: done},
		}})
	}
	const batch = 4
	for {
		if !alive() || w.epochs[id] != epoch {
			return
		}
		rows := w.nodes[id].ScanTableRows(baseTable, cursor, batch)
		if len(rows) == 0 {
			save(true)
			w.bfScanFinished(gen, id)
			return
		}
		for _, bk := range rows {
			if !alive() || w.epochs[id] != epoch {
				return
			}
			w.report.BackfillRowsScanned++
			w.backfillFill(co, alive, epoch, bk)
		}
		cursor = rows[len(rows)-1]
		save(false)
		// Throttle: yield a beat so live writes interleave with the scan.
		w.s.Sleep(2 * time.Millisecond)
	}
}

// bfScanFinished marks one partition complete; when all partitions of
// the current generation are done the view is live.
func (w *world) bfScanFinished(gen int, id transport.NodeID) {
	if !w.bfActive || w.bfGen != gen || w.bfDone[id] {
		return
	}
	w.bfDone[id] = true
	if len(w.bfDone) == w.cfg.Nodes {
		w.bfLive = true
		w.report.BackfillLive = true
		w.s.Record("backfill-live", w.bfDef.Name)
	}
}

// backfillFill propagates one base row's current state into the
// backfilled view, like the real DB's filler: quorum-read the row
// through the node's coordinator, then run its view-key and materialized
// cells through one regular propagation (creating or promoting the view
// row and seeding its data). The view had no pre-images before it
// existed, so the propagation collects its own pool (recollect). It
// shares the pending/inflight accounting of an ack-time one, so the
// staleness-gauge invariant and the per-key quiescence gating hold for
// fills too. Fill lag is not observed into PropLag — the histogram
// measures client-visible write-to-view staleness, and a bulk fill of
// an hours-old cell is not that.
func (w *world) backfillFill(co *coord.Coordinator, alive func() bool, epoch int, bk string) {
	id := co.Self()
	var merged model.Row
	backoff := time.Millisecond
	for attempt := 0; ; attempt++ {
		if !alive() || w.epochs[id] != epoch {
			return
		}
		if attempt > 2000 {
			w.s.Fail(fmt.Errorf("backfill read of base %q stuck after %d attempts", bk, attempt))
			return
		}
		var err error
		merged, err = co.Get(context.Background(), baseTable, bk, []string{vkCol, matCol}, w.majority(), false)
		if err == nil {
			break
		}
		w.s.Backoff(&backoff, 16*time.Millisecond)
	}
	vk, ok := merged[vkCol]
	if !ok || !vk.Exists() {
		// No acknowledged view-key write is visible at the quorum: no
		// view row to create. A concurrent unacked write propagates
		// itself once it is acked.
		return
	}
	updates := []model.ColumnUpdate{{Column: vkCol, Cell: vk}}
	if mat, ok := merged[matCol]; ok && !mat.IsNull() {
		updates = append(updates, model.ColumnUpdate{Column: matCol, Cell: mat})
	}
	retire := w.trackPropagation(bk)
	if w.runPropagation(co, w.bfDef, bk, updates, nil, epoch, alive) == propDone {
		w.report.BackfillFills++
	}
	retire()
}

package sim

// The simulator runs the shipping propagation protocol — core.Round,
// Algorithms 2-3 with redo-safe promotion — over a simPort that maps
// core.Port onto the simulated quorum primitives. What lives here is
// only what differs from production: the virtual-time lock service and
// the drive loop around a round (restart epochs, view liveness, never
// abandoning, refreshing the guess pool from replica reads).

import (
	"context"
	"fmt"
	"time"

	"vstore/internal/core"
	"vstore/internal/model"
	"vstore/internal/transport"
)

// simLock serializes propagation rounds per base key, standing in for
// the registry's lock service. Grants are FIFO and always delivered via
// a scheduled event, keeping acquisition order deterministic.
type simLock struct {
	held    bool
	waiters []func(interface{})
}

func (w *world) lock(p *Proc, key string) {
	l := w.locks[key]
	if l == nil {
		l = &simLock{}
		w.locks[key] = l
	}
	if !l.held {
		l.held = true
		return
	}
	p.Await(func(resolve func(interface{})) {
		l.waiters = append(l.waiters, resolve)
	})
}

func (w *world) unlock(key string) {
	l := w.locks[key]
	if len(l.waiters) == 0 {
		l.held = false
		return
	}
	grant := l.waiters[0]
	l.waiters = l.waiters[1:]
	w.s.Schedule(0, "lock-grant", key, func() { grant(nil) })
}

// simPort is core.Port for one propagation thread: quorum rounds from
// coordinator `from` over the fabric, parked on proc p. The lock is per
// view per base key (two views' maintenance of one base key writes
// disjoint rows) and always exclusive.
type simPort struct {
	w    *world
	p    *Proc
	from transport.NodeID
}

func (sp simPort) Get(_ context.Context, table, row string, cols []string) (model.Row, error) {
	return sp.w.quorumGet(sp.p, sp.from, table, row, cols)
}

// MultiGet reads the rows one quorum round after another: the batch is
// an optimization of the real transport, but its semantics — walks
// served from a point-in-time snapshot — are what the oracle should see.
func (sp simPort) MultiGet(_ context.Context, table string, rows, cols []string) ([]model.Row, error) {
	out := make([]model.Row, len(rows))
	for i, row := range rows {
		r, err := sp.w.quorumGet(sp.p, sp.from, table, row, cols)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

func (sp simPort) Put(_ context.Context, table, row string, updates []model.ColumnUpdate) error {
	return sp.w.viewPut(sp.p, sp.from, table, row, updates)
}

func (sp simPort) Serialize(key string, _ bool) func() {
	sp.w.lock(sp.p, key)
	return func() { sp.w.unlock(key) }
}

// Propagation outcomes. Crashed and dropped differ for intent
// bookkeeping: a crashed propagation is still owed to its view (the
// re-enqueued intent redoes it), while a dropped view owes nothing.
const (
	propDone = iota
	propCrashed
	propDropped
)

// runPropagation is the retry loop of Algorithm 1 lines 5-7: try the
// collected guesses, and while none resolves, back off and augment the
// guess pool from fresh replica reads. The sim never abandons — faults
// heal at cfg.Duration, so every propagation eventually completes (a
// propagation stuck past its attempt budget is itself a violation).
//
// def is the target view (byview, or a backfilled-view generation) and
// updates the base-row cells to propagate into it. epoch is the
// coordinator's restart epoch at the time this propagation was started
// (always 0 in memory mode). In durable runs a CrashRestart bumps the
// node's epoch, and a propagation thread whose epoch has passed aborts
// at its next step — it died with its process; the intent the
// coordinator logged before acking was recovered from disk and
// re-enqueued by the restart. alive, when non-nil, is the target view's
// liveness check: a dropped view's propagations abort as propDropped
// (there is nothing left to maintain).
func (w *world) runPropagation(p *Proc, coordID transport.NodeID, def *core.Def, bk string, updates []model.ColumnUpdate, vers *versionSet, epoch int, alive func() bool) int {
	what := fmt.Sprintf("view=%s base=%s col=%s ts=%d", def.Name, bk, updates[0].Column, updates[0].Cell.TS)
	task, _ := core.TaskFor(def, bk, updates) // sim updates always touch the view
	round := core.Round{
		Port: simPort{w, p, coordID}, Stats: &w.stats, Obs: w.obs,
		MaxChainHops: w.cfg.MaxChainHops, PathCompression: w.cfg.PathCompression,
	}
	backoff := time.Millisecond
	status := propCrashed
	for attempt := 0; ; attempt++ {
		if alive != nil && !alive() {
			w.s.Record("prop-dropped", what)
			status = propDropped
			break
		}
		if w.durable && w.epochs[coordID] != epoch {
			w.s.Record("prop-aborted", fmt.Sprintf("%s coord=%d crashed", what, coordID))
			break
		}
		if attempt > 2000 {
			w.s.Fail(fmt.Errorf("propagation %s stuck after %d attempts", what, attempt))
			break
		}
		// Round errors are failed guesses; the loop retries them all.
		if done, _ := round.Try(context.Background(), &task, vers); done {
			status = propDone
			break
		}
		p.Backoff(&backoff, 16*time.Millisecond)
		if !vers.complete {
			w.refreshVersions(p, coordID, bk, vers)
		}
	}
	w.inflight[bk]--
	if status == propDone {
		w.s.Record("prop-done", what)
	}
	return status
}

// nullPool is the guess pool of a propagation without pre-images — a
// replayed intent, a backfill fill, a view defined after the write's
// pre-read. It starts from the conservative NULL guess (walk from the
// anchor; license creation if no view row exists) and grows by fresh
// replica reads. NULL must stay in the pool: every replica may already
// report the propagated write itself as the current version, and if its
// view row was never created, a pool holding only that version walks to
// a nonexistent row forever.
func nullPool() *versionSet {
	vers := &versionSet{}
	vers.cells.Add(model.NullCell)
	return vers
}

// trackPropagation enters a propagation for base key bk into the
// staleness gauge and the quiescence gating; the returned function
// retires it and reports how long it was pending. The clock starts now,
// not when a delayed propagation fires: the scheduling delay is lag a
// view reader can observe.
func (w *world) trackPropagation(bk string) (retire func() time.Duration) {
	pid := w.nextPropID
	w.nextPropID++
	w.propPending[pid] = w.s.Now()
	w.inflight[bk]++
	return func() time.Duration {
		lag := w.s.Now() - w.propPending[pid]
		delete(w.propPending, pid)
		return lag
	}
}

// startPropagations starts one propagation of u per view active right
// now — the same fence DB.CreateViewAsync relies on: writes acked
// before the define are quorum-visible to the backfill scan's reads,
// writes acked after it get their own propagation. vers is the write's
// pre-image pool, nil when it has none; a view defined mid-stream never
// saw that pre-read either and gets a nullPool. settled runs once every
// target is done or its view was dropped; a crashed target never
// settles, keeping the intent pending for replay.
func (w *world) startPropagations(delay time.Duration, kind string, coordID transport.NodeID, bk string, u model.ColumnUpdate, vers *versionSet, epoch int, settled func()) {
	targets := w.propTargets()
	remaining := len(targets)
	for _, tgt := range targets {
		tgt, tvers := tgt, vers
		if tvers == nil || tgt.fresh {
			tvers = nullPool()
		}
		retire := w.trackPropagation(bk)
		w.s.Go(delay, fmt.Sprintf("%s %s %s %s ts=%d", kind, tgt.def.Name, bk, u.Column, u.Cell.TS), func(pp *Proc) {
			status := w.runPropagation(pp, coordID, tgt.def, bk, []model.ColumnUpdate{u}, tvers, epoch, tgt.alive)
			if lag := retire(); status == propDone {
				w.propLag.Observe(int64(lag / time.Microsecond))
			}
			if status != propCrashed {
				if remaining--; remaining == 0 {
					settled()
				}
			}
		})
	}
}

// refreshVersions augments the guess pool with the view-key versions
// currently visible at the replicas. Pre-image versions from the
// original write stay in the pool (they carry the NULL that licenses
// row creation); completeness requires a round where every replica
// answered.
func (w *world) refreshVersions(p *Proc, coordID transport.NodeID, bk string, vers *versionSet) {
	replicas := w.replicas(baseTable, bk)
	req := transport.GetReq{Table: baseTable, Row: bk, Columns: []string{vkCol}}
	acks := w.gather(p, coordID, replicas, req, func(resp transport.Response) {
		cell, ok := resp.(transport.GetResp).Cells[vkCol]
		if !ok {
			cell = model.NullCell
		}
		vers.cells.Add(cell)
	})
	if acks == len(replicas) {
		vers.complete = true
	}
}

package sim

// The simulator runs the shipping propagation protocol — core.Round,
// Algorithms 2-3 with redo-safe promotion — over the shipping port:
// core.NewCoordPort on the node's real coordinator. What lives here is
// only what differs from production: the virtual-time lock service and
// the drive loop around a round (restart epochs, view liveness, never
// abandoning, topping the guess pool up from replica reads).

import (
	"context"
	"fmt"
	"time"

	"vstore/internal/coord"
	"vstore/internal/core"
	"vstore/internal/model"
)

// lock and unlock serialize propagation rounds per key, standing in for
// the registry's lock service: w.locks maps each held key to the queue
// waiting for it. Grants are FIFO and always delivered via a scheduled
// event, keeping acquisition order deterministic.
func (w *world) lock(key string) {
	if _, held := w.locks[key]; held {
		w.s.Await(func(wake func()) { w.locks[key] = append(w.locks[key], wake) })
		return
	}
	w.locks[key] = nil
}

func (w *world) unlock(key string) {
	q := w.locks[key]
	if len(q) == 0 {
		delete(w.locks, key)
		return
	}
	w.locks[key] = q[1:]
	w.s.Schedule(0, "lock-grant", key, q[0])
}

// port is core.Port for one propagation thread: production's port over
// coordinator co, serialized by lock. The lock is per view per base key
// (two views' maintenance of one base key writes disjoint rows) and
// always exclusive.
func (w *world) port(co *coord.Coordinator) core.Port {
	return core.NewCoordPort(co, func(key string, _ bool) func() {
		w.lock(key)
		return func() { w.unlock(key) }
	})
}

// majority is the quorum of every read and write the simulator issues.
func (w *world) majority() int { return w.cfg.N/2 + 1 }

// Propagation outcomes. Crashed and dropped differ for intent
// bookkeeping: a crashed propagation is still owed to its view (the
// re-enqueued intent redoes it), while a dropped view owes nothing.
const (
	propDone = iota
	propCrashed
	propDropped
)

// runPropagation is the retry loop of Algorithm 1 lines 5-7: try the
// collected guesses, and while none resolves, back off and top the
// guess pool up from fresh replica reads. The sim never abandons — faults
// heal at cfg.Duration, so every propagation eventually completes (a
// propagation stuck past its attempt budget is itself a violation).
//
// co is the coordinator the propagation runs on, def the target view
// and updates the base-row cells to propagate into it. vers is the guess
// pool; a propagation without pre-images (a replayed intent, a backfill
// fill, a view defined after the write's pre-read) passes nil and
// collects one first. epoch is co's restart epoch when the propagation
// was started (always 0 in memory mode): a CrashRestart bumps it, and a
// propagation thread whose epoch has passed aborts at its next step — it
// died with its process, and the restart re-enqueued the intent the
// coordinator had logged before acking. alive, when non-nil, is the
// target view's liveness check: a dropped view's propagations abort as
// propDropped (there is nothing left to maintain).
func (w *world) runPropagation(co *coord.Coordinator, def *core.Def, bk string, updates []model.ColumnUpdate, vers *coord.VersionCollector, epoch int, alive func() bool) int {
	what := fmt.Sprintf("view=%s base=%s col=%s ts=%d", def.Name, bk, updates[0].Column, updates[0].Cell.TS)
	task, _ := core.TaskFor(def, bk, updates) // sim updates always touch the view
	round := core.Round{
		Port: w.port(co), Stats: &w.stats, Obs: w.obs,
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
		if w.durable && w.epochs[co.Self()] != epoch {
			w.s.Record("prop-aborted", fmt.Sprintf("%s coord=%d crashed", what, co.Self()))
			break
		}
		if attempt > 2000 {
			w.s.Fail(fmt.Errorf("propagation %s stuck after %d attempts", what, attempt))
			break
		}
		if vers == nil || attempt > 0 && !vers.Complete() {
			vers = w.recollect(co, bk, vers)
		}
		// Round errors are failed guesses; the loop retries them all.
		if done, _ := round.Try(context.Background(), &task, vers); done {
			status = propDone
			break
		}
		w.s.Backoff(&backoff, 16*time.Millisecond)
	}
	w.inflight[bk]--
	if status == propDone {
		w.s.Record("prop-done", what)
	}
	return status
}

// recollect tops a guess pool up with the view-key versions currently
// visible at the replicas — coord.GetVersions, as Manager.recollect
// does. A propagation without pre-images (old == nil) starts from the
// conservative NULL guess (walk from the anchor; license creation if no
// view row exists), and NULL stays in the pool: every replica may
// already report the propagated write itself, and if its view row was
// never created that guess walks to a nonexistent row forever. A round
// that fails its quorum still hands back its collector; it never
// completes, so the drive loop comes back here.
func (w *world) recollect(co *coord.Coordinator, bk string, old *coord.VersionCollector) *coord.VersionCollector {
	cs, _ := co.GetVersions(context.Background(), baseTable, bk, []string{vkCol}, w.majority())
	if old == nil {
		cs[vkCol].Seed(model.NullCell)
	}
	return carry(cs[vkCol], old)
}

// carry seeds pool vers with what an earlier pool of the same
// propagation collected (pre-images of the original write carry the
// NULL that licenses row creation) and returns it.
func carry(vers, old *coord.VersionCollector) *coord.VersionCollector {
	if old != nil {
		for _, cell := range old.Versions() {
			vers.Seed(cell)
		}
	}
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
// saw that pre-read either and collects its own. settled runs once every
// target is done or its view was dropped; a crashed target never
// settles, keeping the intent pending for replay.
func (w *world) startPropagations(delay time.Duration, kind string, co *coord.Coordinator, bk string, u model.ColumnUpdate, vers *coord.VersionCollector, epoch int, settled func()) {
	targets := w.propTargets()
	remaining := len(targets)
	for _, tgt := range targets {
		tgt, tvers := tgt, vers
		if tgt.fresh {
			tvers = nil
		}
		retire := w.trackPropagation(bk)
		w.s.Go(delay, fmt.Sprintf("%s %s %s %s ts=%d", kind, tgt.def.Name, bk, u.Column, u.Cell.TS), func() {
			status := w.runPropagation(co, tgt.def, bk, []model.ColumnUpdate{u}, tvers, epoch, tgt.alive)
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

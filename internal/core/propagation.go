package core

import (
	"context"
	"errors"
	"fmt"

	"vstore/internal/model"
	"vstore/internal/trace"
)

// This file is the single definition of one propagation round:
// PropagateUpdate, GetLiveKey and CopyData (Algorithms 2-3), written
// against the narrow Port below. Production (Manager over a
// coord.Coordinator and the ledger's row grant), the deterministic simulator
// (internal/sim over its virtual-time quorum primitives) and tests
// (fakes that fail chosen writes) all run these functions; only the
// retry loops around a round differ per runtime.
//
// Promotion is redo-safe. A quorum failure midway through the "new row
// wins" sequence leaves a half-created self-pointing row — created
// (step 1) but never published (step 3). Such a ghost looks live to a
// naive Algorithm 3 walk, and when the promoted view key was previously
// a stale chain link, step 1's self-pointer severs the chain there, so
// even a walk from the anchor dead-ends at the ghost. Two rules fix it.
// Step 1 records the row being superseded in a ColPrev cell written
// atomically with the self-pointer. And a walk trusts a self-pointing
// terminus only when its ready marker is current: otherwise resolution
// detours through the recorded origin (resolveLive).

// errKeyMissing is the retryable failure of Algorithm 3: the guessed
// view key does not (yet) exist in the view, because the base-table
// update that wrote it has not propagated.
var errKeyMissing = errors.New("core: view key not found in view")

// errUnresolved is the retryable "a ghost is in the way" failure: the
// walk ended at an unpublished row and the detour could not settle it
// either. Distinct from errKeyMissing so it never licenses row creation.
var errUnresolved = errors.New("core: live row resolution blocked by an unfinished promotion")

// readyValue is the value of every ready and deletion marker. Cell
// values are immutable throughout the store, so one slice serves all.
var readyValue = []byte("1")

// Port is everything a propagation round needs from the runtime under
// it. All reads and writes use the majority quorum Algorithm 2 mandates.
type Port interface {
	// Get reads the named columns of one row: cell i is cols[i]'s,
	// model.NullCell for a column never written.
	Get(ctx context.Context, table, row string, cols []string) ([]model.Cell, error)
	// MultiGet reads the same columns of several rows of one table in a
	// single round trip; result i belongs to rows[i], its cells aligned
	// with cols as Get's are.
	MultiGet(ctx context.Context, table string, rows, cols []string) ([][]model.Cell, error)
	// Put writes cells into one row.
	Put(ctx context.Context, table, row string, updates []model.ColumnUpdate) error
	// Serialize blocks until the caller may run one round for key — a
	// view name and stored base key — exclusively for view-key updates,
	// shared for materialized-column updates, and returns the release.
	// It is held across a single round, never across a backoff wait: the
	// paper's progress argument (Section IV-D) relies on some other
	// unpropagated update proceeding while this one's guesses are still
	// unresolved.
	Serialize(key string, exclusive bool) (release func())
}

// Pool is a propagation's guess pool: the view-key versions collected
// from the replicas so far, newest first, and whether every replica has
// reported.
type Pool interface {
	Versions() []model.Cell
	Complete() bool
}

// Task is one view's maintenance work for a single base-row Put.
type Task struct {
	def  *Def
	vk   *model.ColumnUpdate // update to the view-key column, if any
	mats []model.ColumnUpdate
	// fill, when non-nil, marks a backfill fill and bounds its retries
	// (the filler waits on that context). A fill also skips the simulated
	// PropagationDelay, which models a busy live-update queue, not a bulk
	// scan, but still competes for propagation slots so it cannot starve
	// live maintenance.
	fill context.Context
	// anchored adds the NULL guess — walk from the base row's chain
	// anchor; license creation if no view row exists — to whatever the
	// pool holds. Set where the pre-images may name rows the view will
	// never have: a replayed intent, a late or backfill task (their pool
	// was re-read after the write), any task into a view still being
	// backfilled.
	anchored bool

	baseKey string
	stored  string // the base key as view rows spell it (Def.storedKey)
	lockKey string // Port.Serialize key
	anchor  string // the base row's chain anchor
	// cols are qualified column names: ColNext and ColReady; then, for a
	// task carrying a live view-key write, the materialized columns and
	// ColDeleted — what CopyData folds from the old live row, so the walk
	// that finds that row reads them too; last ColPrev. A chain hop reads
	// all but ColPrev (hopCols), which joins once a walk ends at a ghost.
	// Every view row a round reads is a prefix of cols, so its cell i is
	// cols[i]'s.
	cols []string

	// err is the propagation's outcome, set as it ends: a backfill fill's
	// caller reads it once the fill's countdown is done.
	err error
}

// TaskFor splits a base row's update set into the part one view must
// maintain; ok is false when the updates touch neither the view key nor
// a materialized column.
func TaskFor(def *Def, baseKey string, updates []model.ColumnUpdate) (t Task, ok bool) {
	t = Task{def: def, baseKey: baseKey}
	for i := range updates {
		switch {
		case updates[i].Column == def.ViewKeyColumn:
			t.vk = &updates[i]
		case def.isMaterialized(updates[i].Column):
			t.mats = append(t.mats, updates[i])
		}
	}
	if t.vk == nil && len(t.mats) == 0 {
		return t, false
	}
	t.stored = def.storedKey(baseKey)
	t.lockKey = def.Name + "\x00" + t.stored
	t.anchor = nullRowKey(t.stored)
	t.cols = append(make([]string, 0, len(def.Materialized)+4), ColNext, ColReady)
	if !t.deletes() {
		t.cols = append(append(t.cols, def.Materialized...), ColDeleted)
	}
	t.cols = append(t.cols, ColPrev)
	model.QualifyAll(t.stored, t.cols)
	return t, true
}

// deletes reports whether the task cannot create a view row: it carries
// no view-key update, or a view-key deletion.
func (t *Task) deletes() bool { return t.vk == nil || t.vk.Cell.Tombstone }

// hopCols are the columns every chain hop reads.
func (t *Task) hopCols() []string { return t.cols[:len(t.cols)-1] }

// dataCols are the qualified materialized columns, then ColDeleted; empty
// unless the task carries a live view-key write.
func (t *Task) dataCols() []string { return t.cols[2 : len(t.cols)-1] }

// prevCol is the qualified ColPrev.
func (t *Task) prevCol() string { return t.cols[len(t.cols)-1] }

// Round runs propagation rounds over one Port, reporting through the
// shared instruments.
type Round struct {
	Port
	Stats *Stats
	Obs   *ViewObs
	// MaxChainHops caps a chain walk (cycle guard); PathCompression makes
	// a walk rewrite the stale pointers it traversed.
	MaxChainHops    int
	PathCompression bool
}

// Try makes one pass over the currently collected guesses while
// serialized on the base row. It reports done=true when the propagation
// completed (successfully or as a provable no-op).
func (r *Round) Try(ctx context.Context, t *Task, pool Pool) (bool, error) {
	release := r.Serialize(t.lockKey, t.vk != nil)
	defer release()

	// Completeness is sampled first: a pool complete now cannot be
	// missing a version from the snapshot taken after it.
	complete := pool.Complete()
	guesses := pool.Versions()
	anyWritten, live, allOwn := false, 0, t.vk != nil && complete && len(guesses) > 0
	for _, g := range guesses {
		allOwn = allOwn && g.Equal(t.vk.Cell)
		if g.Exists() {
			anyWritten = true
			if !g.Tombstone {
				live++
			}
		}
	}
	// Every replica reporting "no view key ever written" means no
	// view row exists for this base row (Definition 1). A
	// materialized-column-only update then has nothing to maintain,
	// and a view-key *deletion* has nothing to delete. Safe only once
	// collection is complete. Tombstoned pre-images do NOT qualify —
	// a deleted view key may still have a live (not yet
	// deletion-marked) view row that a re-propagated deletion must
	// stamp, so those fall through to the chain walks below.
	if !anyWritten && complete && t.deletes() {
		r.Stats.NoOps.Add(1)
		return true, nil
	}
	// With a complete pool, a deletion (or mat-only update) whose walk
	// finds no anchor at the quorum is a provable no-op: any concurrent
	// view-key creation's CopyData quorum-reads the base row, intersects
	// this update's acked write quorum, and folds the winning state
	// itself. A live guess forbids the shortcut until its own walk has
	// missed in this round: the row it names may exist unanchored
	// mid-create, but a creation whose copy preceded this write's ack
	// wrote that row to a quorum before it, and the walk finds it. An
	// anchored task's live guess may miss for good — the backfill scan
	// read the base row after the write and never created the row it
	// names — and this shortcut is what ends such a deletion.
	noView := complete && t.deletes()
	// allOwn: every pre-image is the very write being propagated. An
	// earlier attempt of this Put landed on those replicas, its replies
	// were lost and the client re-issued it, so what they really
	// overwrote is gone and the pool names only a row nobody has created.
	// Like an anchored task's, its guesses then include the one that
	// cannot dangle. (One such pre-image among real ones is ordinary: a
	// read repair carried the write to a replica ahead of its request.)
	if n := len(guesses); (t.anchored || allOwn) && (n == 0 || guesses[n-1].Exists()) {
		guesses = append(guesses, model.NullCell) // oldest, so last
	}

	// With several guesses the chain walks ahead share one batched
	// lookup of every start key (one round trip instead of one Get per
	// guess).
	pre := r.prefetchStarts(ctx, t, guesses)

	for _, g := range guesses {
		err := r.propagateOnce(ctx, t, g, pre)
		if err == nil {
			r.Stats.Propagations.Add(1)
			return true, nil
		}
		missing := errors.Is(err, errKeyMissing)
		if !g.IsNull() && missing {
			live--
		}
		if noView && live == 0 && g.IsNull() && missing {
			r.Stats.NoOps.Add(1)
			return true, nil
		}
		r.Stats.FailedAttempts.Add(1)
		if ctx.Err() != nil {
			return false, err
		}
	}
	return false, nil
}

// startKey resolves a guess to the view row its chain walk starts at. A
// NULL guess (the replica had no view key before the update) starts from
// the base row's chain anchor; see nullRowKey.
func (t *Task) startKey(guess model.Cell) string {
	if guess.IsNull() {
		return t.anchor
	}
	return string(guess.Value)
}

// propagateOnce is PropagateUpdate (Algorithm 2) for one guess. It
// handles a view-key update, view-materialized column updates, or both
// at once (the multi-column extension the paper describes in IV-C).
func (r *Round) propagateOnce(ctx context.Context, t *Task, guess model.Cell, pre map[string][]model.Cell) error {
	live, err := r.resolveLive(ctx, t, t.startKey(guess), pre)
	creating := false
	if err != nil {
		// A missing anchor together with a NULL guess means no view
		// row has ever been created for this base row: a view-key
		// update may create the first one. Any other failure is a bad
		// guess — retried by the caller with another version.
		if errors.Is(err, errKeyMissing) && guess.IsNull() && !t.deletes() {
			creating, live = true, terminus{ts: model.NullTS}
		} else {
			return err
		}
	}

	target := live.key // row that will receive materialized-column cells
	if t.vk != nil {
		if target, err = r.propagateViewKey(ctx, t, live, creating); err != nil {
			return err
		}
	}
	if len(t.mats) > 0 && t.def.Selects(target) {
		// Algorithm 2 line 12: write the new values into the live row.
		// The cells carry the base-table timestamps, so stale
		// propagations lose to fresher cell values automatically.
		// (Rows outside the view's selection carry no data cells, so
		// materialized updates to them are skipped; if the key later
		// moves into the selection, CopyData re-seeds from the base.)
		updates := make([]model.ColumnUpdate, 0, len(t.mats))
		for _, u := range t.mats {
			updates = append(updates, model.ColumnUpdate{Column: model.Qualify(t.stored, u.Column), Cell: u.Cell})
		}
		return r.Put(ctx, t.def.Name, target, updates)
	}
	return nil
}

// propagateViewKey handles the view-key branch of Algorithm 2 and
// returns the key of the row that now represents the base row's
// current state (where bundled materialized updates should land).
func (r *Round) propagateViewKey(ctx context.Context, t *Task, live terminus, creating bool) (string, error) {
	vk := t.vk.Cell
	tNew := vk.TS
	kLive, tLive := live.key, live.ts
	if vk.Tombstone {
		// Deletion of the view key: the row stays in the versioned
		// view (it anchors stale chains) but is marked deleted. Reads
		// skip rows whose deletion is at least as new as their live
		// pointer.
		return kLive, r.Put(ctx, t.def.Name, kLive, []model.ColumnUpdate{
			{Column: model.Qualify(t.stored, ColDeleted), Cell: model.Cell{Value: readyValue, TS: tNew}},
		})
	}

	kNew := string(vk.Value)
	self := model.ColumnUpdate{Column: t.cols[0], Cell: model.Cell{Value: vk.Value, TS: tNew}}
	ready := model.ColumnUpdate{Column: t.cols[1], Cell: model.Cell{Value: readyValue, TS: tNew}}

	// The live row's Next cell holds exactly the winning view-key
	// write (value kLive at tLive), so LWW comparison against it
	// decides whether this update supersedes the live row — including
	// the timestamp-tie case the paper leaves to Cassandra semantics.
	switch {
	case kNew == kLive:
		// Case 2c: the key is already live; refresh its timestamps (no
		// effect if tNew is older, by Put semantics). Pointer and ready
		// marker travel in one put, so a replica that observes the
		// refreshed pointer also observes the refreshed marker.
		return kNew, r.Put(ctx, t.def.Name, kNew, []model.ColumnUpdate{self, ready})

	case creating || vk.Wins(model.Cell{Value: []byte(kLive), TS: tLive}):
		// The new row becomes the live row. Order matters for
		// concurrent readers (Section IV-F) and for redo: (1) create
		// the row self-pointing, without its ready marker —
		// inaccessible — recording the row it supersedes and carrying
		// the view-materialized cells (CopyData), all in one write;
		// (2) turn the old live row (the anchor when creating) stale;
		// (3) publish the new row by writing its ready marker. Pointer
		// and origin lead the write: a replica that keeps only a prefix
		// of it keeps them.
		create := make([]model.ColumnUpdate, 2, 2+len(t.dataCols()))
		create[0] = self
		create[1] = model.ColumnUpdate{Column: t.prevCol(), Cell: model.Cell{Value: []byte(kLive), TS: tNew}}
		// Rows outside the view's selection are structure-only: they
		// anchor stale chains but never carry materialized data.
		if t.def.Selects(kNew) {
			var err error
			if create, err = r.copyData(ctx, t, live, create); err != nil {
				return "", err
			}
		}
		if err := r.Put(ctx, t.def.Name, kNew, create); err != nil {
			return "", err
		}
		staleRow := kLive
		if creating {
			staleRow = t.anchor
		}
		if err := r.Put(ctx, t.def.Name, staleRow, []model.ColumnUpdate{self}); err != nil {
			return "", err
		}
		return kNew, r.Put(ctx, t.def.Name, kNew, []model.ColumnUpdate{ready})

	default:
		// The update is older than the live row: record it as a stale
		// row pointing (directly) at the live row, so later guesses of
		// kNew can still find the live row. The pointer is stamped at
		// the live row's timestamp, not tNew — what path compression
		// would later write, and redo-safe: if kNew is a ghost of this
		// very update's earlier interrupted attempt, its self-pointer at
		// tNew loses to this cell (the live row won at tNew, so tLive >
		// tNew, or the tie broke on value — and then kLive is the larger
		// value too). If kNew already exists as a stale row with a newer
		// pointer, the Put loses LWW and the existing pointer survives,
		// as Definition 3 requires. Bundled materialized updates still
		// target the live row.
		return kLive, r.Put(ctx, t.def.Name, kNew, []model.ColumnUpdate{
			{Column: t.cols[0], Cell: model.Cell{Value: []byte(kLive), TS: tLive}},
		})
	}
}

// copyData implements Algorithm 2's CopyData: the new live row
// receives the current view-materialized cells, preserving their
// original timestamps so later per-cell propagations merge correctly.
// The deletion marker travels with the live row the same way: a
// propagated view-key deletion must keep suppressing the row even
// after an older (belatedly propagated) view-key write moves the live
// row elsewhere.
//
// The cells come from old, the live row being superseded, as the walk
// that judged it live read it (its row is nil when creating): its hops
// read every data column, the cells of t.dataCols sitting at positions 2
// on. Its cells cannot have changed since, because every writer of this
// base row's qualified cells — live propagations, fills, compression —
// holds the Serialize lock this round holds exclusively. That row holds
// every materialized cell and deletion marker whose propagation has
// finished, and every one still in flight will walk to the new row, so
// it is all the paper's CopyData needs.
//
// Where no data-carrying old live row can supply the copy, the cells
// are LWW-merged with a quorum read of the base row instead (DESIGN.md
// §6, "What a promotion copies"):
//
//   - creating: the base row enters the view for the first time. This is
//     also what Round.Try's no-view shortcut relies on: an update that
//     no-op'd because no view row existed is folded by the creation;
//   - old lies outside the view's selection: it is structure-only and
//     carries no data cells;
//   - the task is anchored (replay, late task, backfill fill, a view
//     still backfilling), where the in-flight argument above does not
//     reach.
//
// Because the copied cells keep their base-table timestamps, merging
// in base state never regresses the view and preserves convergence.
// The cells are appended to updates, which the caller writes with its
// create step.
func (r *Round) copyData(ctx context.Context, t *Task, old terminus, updates []model.ColumnUpdate) ([]model.ColumnUpdate, error) {
	def := t.def
	nMat := len(def.Materialized)
	// copied[i] accumulates materialized column i; the last slot is the
	// deletion marker. Slots nothing folded into are dropped at the end.
	n := len(updates)
	for _, q := range t.dataCols() {
		updates = append(updates, model.ColumnUpdate{Column: q})
	}
	copied := updates[n:]
	for i := range copied {
		copied[i].Cell = model.NullCell
	}
	fold := func(i int, cell model.Cell) {
		if !cell.IsNull() {
			copied[i].Cell = model.Merge(copied[i].Cell, cell)
		}
	}

	if old.row == nil || t.anchored || !def.Selects(old.key) {
		// Base-table state: materialized columns, plus the view-key
		// column to learn whether the row is currently deleted.
		baseCols := append(append(make([]string, 0, nMat+1), def.Materialized...), def.ViewKeyColumn)
		r.Stats.BaseReads.Add(1)
		base, err := r.Get(ctx, def.Base, t.baseKey, baseCols)
		if err != nil {
			return nil, err
		}
		for i := range def.Materialized {
			fold(i, base[i])
		}
		if vk := base[nMat]; vk.Exists() && vk.Tombstone {
			fold(nMat, model.Cell{Value: readyValue, TS: vk.TS})
		}
	}
	if old.row != nil {
		for i := range copied {
			fold(i, old.row[2+i])
		}
	}

	for _, u := range copied {
		if u.Cell.Exists() {
			updates[n] = u
			n++
		}
	}
	return updates[:n], nil
}

// prefetchStarts reads every distinct chain start key among the guesses
// in one batched quorum read, so the chain walks of propagateOnce begin
// with their first hop — and, when one guess's chain leads through
// another guess's key, later hops too — already in hand. The returned
// map, of rows read by hopCols, feeds walkChain's cache.
//
// The prefetch is a performance hint with the same quorum strength as
// the per-hop Gets it replaces: a row written between the batch and
// the walk is simply not seen this round, which at worst costs one
// extra retry, exactly like a Get issued at batch time would have.
// Any batch failure degrades to the unbatched walk.
func (r *Round) prefetchStarts(ctx context.Context, t *Task, guesses []model.Cell) map[string][]model.Cell {
	if len(guesses) < 2 {
		return nil // a single start key gains nothing over its plain Get
	}
	starts := make([]string, 0, len(guesses))
next:
	for _, g := range guesses {
		start := t.startKey(g)
		for _, s := range starts {
			if s == start {
				continue next
			}
		}
		starts = append(starts, start)
	}
	if len(starts) < 2 {
		return nil
	}
	rows, err := r.MultiGet(ctx, t.def.Name, starts, t.hopCols())
	if err != nil {
		return nil
	}
	r.Stats.BatchedLookups.Add(1)
	pre := make(map[string][]model.Cell, len(starts))
	for i, s := range starts {
		pre[s] = rows[i]
	}
	return pre
}

// terminus is the self-pointing row a chain walk ended at.
type terminus struct {
	key       string
	ts        int64
	published bool         // ready marker at least as fresh as the pointer
	row       []model.Cell // the row it was judged from, CopyData's source
}

// terminusOf judges whether row — kv's pointer and ready marker, read
// in one request — is a self-pointing terminus.
func (t *Task) terminusOf(kv string, row []model.Cell) (end terminus, ok bool) {
	next, ready := row[0], row[1]
	if next.IsNull() || string(next.Value) != kv {
		return terminus{}, false
	}
	return terminus{key: kv, ts: next.TS, published: !ready.IsNull() && ready.TS >= next.TS, row: row}, true
}

// resolveLive finds the authoritative live row for a base key. A walk
// is trusted only when it ends at a published row. An unpublished
// self-pointing terminus is an interrupted promotion; its ColPrev cell
// names the row it was superseding (rows written before that cell
// existed detour via the anchor), and a detour walk from there
// disambiguates the two interrupted shapes:
//
//   - The detour reaches a published live row: the interrupted
//     promotion never redirected it (it may even have severed the
//     chain by re-promoting an old stale key). That row is the
//     authority; proceeding against it demotes or redoes the ghost.
//   - The detour arrives back at the unpublished terminus: the only
//     pointer into an unpublished row is its own promotion's redirect
//     (stale inserts and compression only target published rows), so
//     the redirect — and the create write before it, which carried the
//     copy — completed. Only the publish was lost, and any operation may
//     finish it.
//
// A walk that ends at a published row pays nothing for any of this;
// the origin cell is only read once a ghost is in the way.
func (r *Round) resolveLive(ctx context.Context, t *Task, start string, pre map[string][]model.Cell) (terminus, error) {
	ghost, err := r.walkChain(ctx, t, start, pre)
	if err != nil || ghost.published {
		return ghost, err
	}
	r.Stats.GhostDetours.Add(1)
	// Every column, origin included, in one fresh request, so the
	// per-replica atomicity of the create step's write carries over to
	// the merged read (the walk's own view of the row may be a
	// prefetched snapshot), and the row serves CopyData if the ghost
	// turns out to be the live row.
	row, err := r.Get(ctx, t.def.Name, ghost.key, t.cols)
	if err != nil {
		return terminus{}, err
	}
	ghost, ok := t.terminusOf(ghost.key, row)
	switch {
	case !ok:
		return terminus{}, fmt.Errorf("%w: %q was redirected mid-resolution", errUnresolved, start)
	case ghost.published:
		return ghost, nil
	}
	detour := t.anchor
	if prev := row[len(t.cols)-1]; !prev.IsNull() && len(prev.Value) > 0 {
		detour = string(prev.Value)
	}
	live, err := r.walkChain(ctx, t, detour, nil)
	switch {
	case err != nil:
		// Deliberately not errKeyMissing: view rows exist (the ghost
		// does), so a missing detour row must not license creation.
		return terminus{}, fmt.Errorf("%w: %q detour via %q: %v", errUnresolved, ghost.key, detour, err)
	case live.published:
		return live, nil
	case live.key != ghost.key:
		return terminus{}, fmt.Errorf("%w: %q and %q both unpublished", errUnresolved, ghost.key, live.key)
	}
	// Redirect provably done: help the interrupted promotion over the
	// line by publishing its ready marker.
	if err := r.Put(ctx, t.def.Name, ghost.key, []model.ColumnUpdate{
		{Column: t.cols[1], Cell: model.Cell{Value: readyValue, TS: ghost.ts}},
	}); err != nil {
		return terminus{}, err
	}
	r.Stats.HelpedPublishes.Add(1)
	return ghost, nil
}

// walkChain is Algorithm 3: starting from a guessed view key, follow
// Next pointers through stale rows to the self-pointing terminus. It
// returns errKeyMissing when the starting key has no row for this base
// key — the guess's update has not propagated yet. Each hop reads the
// pointer, the ready marker and the cells CopyData copies (hopCols) in
// a single request, so neither judging the terminus nor copying from it
// costs an extra round trip.
//
// pre optionally carries rows prefetched by prefetchStarts; hops whose
// key is in the batch skip their quorum round trip (an empty
// prefetched row means the quorum saw no such row, which is exactly
// errKeyMissing — also no round trip).
//
// With PathCompression the traversed stale rows are rewritten to point
// directly at the terminus (at its pointer's timestamp, which dominates
// every stale pointer), flattening hot chains the way union-find path
// compression does — but only toward a published terminus: compressing
// toward an unpublished row would splice a ghost into real chains.
func (r *Round) walkChain(ctx context.Context, t *Task, start string, pre map[string][]model.Cell) (terminus, error) {
	r.Stats.LiveKeyLookups.Add(1)
	view := t.def.Name
	kv := start
	var visited []string
	walk := trace.FromContext(ctx).Child("chain.walk")
	if walk != nil {
		walk.SetAttr("view", view)
		walk.SetAttr("start", start)
		ctx = trace.NewContext(ctx, walk)
	}
	defer func() {
		// Rows visited, counting the terminus: 1 = no stale hops.
		r.Obs.ChainLen.Observe(int64(len(visited)) + 1)
		if walk != nil {
			walk.SetAttr("hops", fmt.Sprint(len(visited)))
			walk.Finish()
		}
	}()
	for hop := 0; hop < r.MaxChainHops; hop++ {
		row, ok := pre[kv]
		if ok {
			// A prefetched row serves at most one hop: it is a
			// point-in-time snapshot, and re-serving it after the walk
			// came back to kv through *fresh* reads could cycle between
			// the snapshot's stale pointer and the current chain forever
			// (stale A→B cached, fresh B→A, cached A→B, ...).
			delete(pre, kv)
			r.Stats.ChainHopsSaved.Add(1)
		} else {
			var err error
			if row, err = r.Get(ctx, view, kv, t.hopCols()); err != nil {
				return terminus{}, err
			}
		}
		next := row[0]
		if next.IsNull() {
			return terminus{}, fmt.Errorf("%w: %q (base row %q)", errKeyMissing, kv, t.baseKey)
		}
		if hop > 0 {
			r.Stats.ChainHops.Add(1)
		}
		if end, ok := t.terminusOf(kv, row); ok {
			if end.published && r.PathCompression && len(visited) > 1 {
				r.compressChain(ctx, t, visited[:len(visited)-1], end)
			}
			return end, nil
		}
		visited = append(visited, kv)
		kv = string(next.Value)
	}
	return terminus{}, fmt.Errorf("core: stale chain for base row %q exceeded %d hops (cycle?)", t.baseKey, r.MaxChainHops)
}

// compressChain rewrites traversed stale pointers to address the live
// row directly. Failures are ignored: compression is a performance
// hint, never needed for correctness.
func (r *Round) compressChain(ctx context.Context, t *Task, staleKeys []string, live terminus) {
	for _, kv := range staleKeys {
		if r.Put(ctx, t.def.Name, kv, []model.ColumnUpdate{
			{Column: t.cols[0], Cell: model.Cell{Value: []byte(live.key), TS: live.ts}},
		}) == nil {
			r.Stats.Compressions.Add(1)
		}
	}
}

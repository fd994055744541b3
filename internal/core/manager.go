package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"vstore/internal/coord"
	"vstore/internal/model"
	"vstore/internal/trace"
	"vstore/internal/wait"
	"vstore/internal/wal"
)

// Manager executes view-aware base-table writes (Algorithm 1) and view
// reads (Algorithm 4) on behalf of one coordinator node. All managers
// of a cluster share one Registry, which carries the view catalog and
// the propagation concurrency control.
//
// A Manager starts no goroutine and reads no clock channel of its own:
// background work and every wait go through its coordinator (Go, Park),
// so it runs unchanged on goroutine fabrics and on the simulator's
// single thread of control.
type Manager struct {
	reg *Registry
	co  *coord.Coordinator
	// round is the shared propagation protocol over this coordinator.
	round Round

	// slots implements the bounded propagation backlog
	// (Options.MaxPendingPropagations); nil when unbounded.
	slots *wait.Slots

	// il, when non-nil, write-ahead-logs propagation intents so a
	// crashed coordinator's unfinished view maintenance is re-enqueued
	// at recovery. Set once before the manager serves traffic.
	il IntentLog

	// closed is set by Close; guarded by the registry's ledger mutex, so
	// that a propagation is either admitted before Close looks for the
	// ones to cancel or not at all.
	closed bool

	stats Stats
}

// IntentLog is the durability hook for propagation intents;
// *wal.Storage is one. LogIntentStart must make the intent durable
// before Put acknowledges; LogIntentDone marks it complete so recovery
// stops replaying it. An intent is marked done only once every
// propagation it stands for has completed (or its view is gone): an
// abandoned or cancelled propagation leaves it pending, the one durable
// record that the view is stale, for the next recovery to replay. Replay
// is idempotent — the propagation machinery merges base state read at
// quorum and every cell carries the base write's timestamp — so marking
// done strictly after completion is safe even when a crash loses the
// done record.
type IntentLog interface {
	NextIntentID() uint64
	LogIntentStart(it wal.Intent) error
	LogIntentDone(id uint64) error
}

// SetIntentLog installs the intent durability hook. Must be called
// before the manager serves writes.
func (m *Manager) SetIntentLog(il IntentLog) { m.il = il }

// ErrClosed ends a propagation — and fails a write — whose manager was
// closed under it. It is not an abandonment: the intent stays pending.
var ErrClosed = errors.New("core: view manager closed")

// ErrViewDropped ends a propagation whose view definition left the
// catalog: there is nothing left to maintain.
var ErrViewDropped = errors.New("core: view dropped")

// Stats counts view-maintenance activity.
type Stats struct {
	// Propagations is the number of successfully completed update
	// propagations.
	Propagations atomic.Int64
	// FailedAttempts counts PropagateUpdate invocations that failed
	// (wrong guess, missing key, transient errors) and were retried.
	FailedAttempts atomic.Int64
	// Abandoned counts propagations dropped after MaxPropagationRetry.
	Abandoned atomic.Int64
	// NoOps counts materialized-column propagations that were provably
	// unnecessary (no view row exists for the base row).
	NoOps atomic.Int64
	// ChainHops counts stale rows traversed by GetLiveKey.
	ChainHops atomic.Int64
	// BatchedLookups counts prefetch rounds that resolved several
	// chain start keys with a single MultiGet round trip.
	BatchedLookups atomic.Int64
	// ChainHopsSaved counts chain-walk reads served from a prefetched
	// batch instead of a dedicated quorum round trip.
	ChainHopsSaved atomic.Int64
	// LiveKeyLookups counts GetLiveKey invocations.
	LiveKeyLookups atomic.Int64
	// Compressions counts stale pointers rewritten by path compression.
	Compressions atomic.Int64
	// GhostDetours counts chain walks that ended at an unpublished row
	// (an interrupted promotion) and detoured through its origin.
	GhostDetours atomic.Int64
	// HelpedPublishes counts ready markers published on behalf of an
	// interrupted promotion whose redirect provably completed.
	HelpedPublishes atomic.Int64
	// BaseReads counts quorum reads of the base row made by CopyData.
	BaseReads atomic.Int64
	// ViewReads counts GetView calls.
	ViewReads atomic.Int64
	// ReadSpins counts view reads that had to wait on an initializing
	// row.
	ReadSpins atomic.Int64
	// LateTasks counts propagations scheduled by the post-ack catalog
	// fence: their view was defined while the write was in flight.
	LateTasks atomic.Int64
	// BackpressureWaits counts propagations whose scheduler had to wait
	// for a slot of the bounded backlog.
	BackpressureWaits atomic.Int64
	// SharedLocks counts rounds serialized under the shared row lock
	// (materialized-column updates, Section IV-F).
	SharedLocks atomic.Int64
	// HandOffs counts failed attempts that parked on an in-flight
	// predecessor — an older propagation of the same row whose view-key
	// write one of the guesses names — instead of on a back-off.
	HandOffs atomic.Int64
}

// NewManager returns a view manager bound to one coordinator.
func NewManager(reg *Registry, co *coord.Coordinator) *Manager {
	m := &Manager{reg: reg, co: co}
	m.round = Round{
		Port: coordPort{m}, Stats: &m.stats, Obs: reg.obs,
		MaxChainHops: reg.opts.MaxChainHops, PathCompression: reg.opts.PathCompression,
	}
	if n := reg.opts.MaxPendingPropagations; n > 0 {
		m.slots = wait.NewSlots(n)
	}
	reg.attach(m)
	return m
}

// Stats exposes the counters.
func (m *Manager) Stats() *Stats { return &m.stats }

// majority is the read and write quorum used for all view-table
// operations during propagation, per Algorithm 2's note.
func majority(co *coord.Coordinator) int { return co.N()/2 + 1 }

// coordPort is the Port of a Manager: majority quorum rounds on its
// coordinator, each granted its row by the registry's ledger.
type coordPort struct{ m *Manager }

func (p coordPort) Get(ctx context.Context, table, row string, cols []string) ([]model.Cell, error) {
	return p.m.co.Get(ctx, table, row, cols, majority(p.m.co), false)
}

func (p coordPort) MultiGet(ctx context.Context, table string, rows, cols []string) ([][]model.Cell, error) {
	reads := make([]coord.RowRead, len(rows))
	for i, row := range rows {
		reads[i] = coord.RowRead{Row: row, Columns: cols}
	}
	got, err := p.m.co.MultiGet(ctx, table, reads, majority(p.m.co))
	if err != nil {
		return nil, err
	}
	out := make([][]model.Cell, len(got))
	for i := range got {
		out[i] = got[i].Cells
	}
	return out, nil
}

func (p coordPort) Put(ctx context.Context, table, row string, updates []model.ColumnUpdate) error {
	return p.m.co.Put(ctx, table, row, updates, majority(p.m.co))
}

// Serialize takes a turn of the row from the ledger, its waiters parked
// through the coordinator. In ModePropagators a round already runs on
// the row's dedicated propagator, which provides the serialization.
func (p coordPort) Serialize(key string, exclusive bool) func() {
	m := p.m
	if m.reg.opts.Mode != ModeLocks {
		return func() {}
	}
	if !exclusive {
		m.stats.SharedLocks.Add(1)
	}
	return m.reg.ledger.serialize(key, exclusive, m.co.Park)
}

// sleep parks the caller for d of the registry's clock.
func (m *Manager) sleep(d time.Duration) {
	var g wait.Gate
	m.reg.clk.AfterFunc(d, g.Open)
	g.Wait(m.co.Park)
}

// Put performs a base-table write with write quorum w, implementing
// Algorithm 1: when the table has views and the update touches a view
// key or view-materialized column, the write carries a pre-read of the
// current view-key versions and triggers asynchronous update
// propagation after the client-visible write completes.
//
// Every propagation the write schedules is entered in the ledger under
// sess (nil: none), for the session's view reads to wait for.
func (m *Manager) Put(ctx context.Context, table, row string, updates []model.ColumnUpdate, w int, sess *Session) error {
	if m.reg.IsView(table) {
		return fmt.Errorf("core: table %q is a view; views are not updateable", table)
	}
	// One round: the Get of Algorithm 1 line 2 rides on the Put (the
	// combination Section IV-C proposes; the prototype ran two rounds,
	// which internal/bench reproduces from the driver for Figures 5/6).
	// With no view to maintain cols is empty and this is a plain Put.
	views := m.reg.ViewsOn(table)
	tasks, cols := m.buildTasks(views, row, updates)
	collectors, err := m.co.PutWithPreRead(ctx, table, row, updates, w, cols)
	if err != nil {
		return err
	}
	// The catalog fence: only a define, drop or re-create while the write
	// was in flight gives the views on table a new slice (see ViewsOn).
	var late []Task
	var lateCollectors coord.Collectors
	if now := m.reg.ViewsOn(table); !slices.Equal(views, now) {
		late, lateCollectors = m.lateTasks(ctx, table, row, updates, now, tasks)
	}
	n := len(tasks) + len(late)
	if n == 0 {
		return nil
	}
	if m.isClosed() {
		return ErrClosed // the manager died under the write: not acknowledged
	}

	// Durable mode: the intent is logged after the quorum write
	// succeeds and before the Put acknowledges, so a coordinator crash
	// between ack and propagation completion leaves a replayable
	// record instead of a permanently stale view.
	var (
		intentErr error
		done      func(complete bool)
		after     *wait.Countdown
	)
	if m.il != nil {
		id := m.il.NextIntentID()
		if intentErr = m.il.LogIntentStart(wal.Intent{ID: id, Table: table, Row: row, Updates: updates}); intentErr == nil {
			done = m.markDone(id)
		}
	}
	if m.il != nil || m.reg.opts.SyncPropagation {
		after = wait.NewCountdown(n, done)
	}
	putSpan := trace.FromContext(ctx)
	for i := range tasks {
		t := &tasks[i]
		m.schedule(t, collectors.Of(t.def.ViewKeyColumn), putSpan, sess, after)
	}
	for i := range late {
		t := &late[i]
		m.schedule(t, lateCollectors.Of(t.def.ViewKeyColumn), putSpan, sess, after)
	}
	if intentErr != nil {
		// The base write happened and propagation is scheduled, but
		// durability of the intent failed: surface it like any other
		// failed (unacknowledged) write so the client retries.
		return fmt.Errorf("core: log propagation intent: %w", intentErr)
	}
	if !m.reg.opts.SyncPropagation {
		return nil
	}
	// Options.SyncPropagation: the Put returns only once the
	// propagations it started have finished, or its context ends.
	stop := context.AfterFunc(ctx, after.Done.Open)
	defer stop()
	after.Done.Wait(m.co.Park)
	if !after.Finished() {
		return ctx.Err()
	}
	return nil
}

// markDone is the done-rule of an intent's countdown: logged as done
// only when every propagation completed. A lost done record only costs
// an idempotent replay.
func (m *Manager) markDone(id uint64) func(complete bool) {
	return func(complete bool) {
		if complete && m.il != nil {
			_ = m.il.LogIntentDone(id)
		}
	}
}

// buildTasks splits a base-table update set into propagation tasks for
// the given views of its table, plus the sorted view-key columns the
// write must pre-read.
func (m *Manager) buildTasks(views []*Def, row string, updates []model.ColumnUpdate) ([]Task, []string) {
	var tasks []Task
	var cols []string
	for _, def := range views {
		t, ok := TaskFor(def, row, updates)
		if !ok {
			continue
		}
		// While a view is still being backfilled, a pre-image may name a
		// row its scan will never create (the fill read the base row after
		// this write landed and created the new key's row directly): only
		// the anchor is a guess that cannot dangle.
		t.anchored = m.reg.backfilling(def.Name)
		tasks = append(tasks, t)
		if !slices.Contains(cols, def.ViewKeyColumn) {
			cols = append(cols, def.ViewKeyColumn)
		}
	}
	slices.Sort(cols)
	return tasks, cols
}

// recollect builds the pre-image pools of propagations that have no Put
// to ride on: the current versions of cols re-read at majority quorum.
// The write-time pre-images are gone (lost with a crashed coordinator,
// or never taken because the view did not exist yet), so such tasks are
// anchored: NULL joins their guesses and keeps the chain anchor
// reachable, or a pool holding only the replayed write itself would spin
// on a view row that was never created.
func (m *Manager) recollect(ctx context.Context, table, row string, cols []string, tasks []Task) (coord.Collectors, error) {
	for i := range tasks {
		tasks[i].anchored = true
	}
	return m.co.GetVersions(ctx, table, row, cols, majority(m.co))
}

// Repropagate re-enqueues a recovered propagation intent: it re-reads
// the current view-key versions at majority quorum and schedules the
// same per-view tasks a fresh Put of its updates would have. The intent
// is marked done once every affected view's propagation completes — at
// once when the catalog no longer holds a view the updates touch. An
// error means nothing was scheduled and the intent stays pending (it
// survives in the log for the next recovery).
func (m *Manager) Repropagate(ctx context.Context, it wal.Intent) error {
	if m.isClosed() {
		return ErrClosed
	}
	done := m.markDone(it.ID)
	tasks, cols := m.buildTasks(m.reg.ViewsOn(it.Table), it.Row, it.Updates)
	if len(tasks) == 0 {
		// The view catalog changed since the intent was logged; there
		// is nothing left to converge.
		done(true)
		return nil
	}
	collectors, err := m.recollect(ctx, it.Table, it.Row, cols, tasks)
	if err != nil {
		return err
	}
	after := wait.NewCountdown(len(tasks), done)
	for i := range tasks {
		t := &tasks[i]
		m.schedule(t, collectors.Of(t.def.ViewKeyColumn), nil, nil, after)
	}
	return nil
}

// lateTasks closes the online-CreateView race. A view defined after
// buildTasks ran but before the quorum write acknowledged is missing
// from the scheduled tasks, and the new view's backfill scan may
// equally have read this row before the write landed — which would
// leave the update permanently unpropagated. Re-checking the catalog
// after the ack guarantees every acknowledged write reaches every view
// defined by ack time; overlap with the backfill is harmless because
// both paths are idempotent LWW-stamped writes. Late tasks get a
// re-collected, anchored pool like intent replay, since the write's
// combined pre-read did not cover their view-key columns; they share
// the write's intent. A pre-read failure here drops the late
// propagation (rare double fault: catalog change racing an unreachable
// quorum); the view's backfill scan or a RebuildView repairs such rows.
// Put calls it only when the views now on the table are not the ones it
// built its tasks from; those already scheduled are skipped by
// definition, so a view re-created under the same name is late too.
func (m *Manager) lateTasks(ctx context.Context, table, row string, updates []model.ColumnUpdate, views []*Def, scheduled []Task) ([]Task, coord.Collectors) {
	now, cols := m.buildTasks(views, row, updates)
	late := now[:0]
next:
	for _, t := range now {
		for i := range scheduled {
			if scheduled[i].def == t.def {
				continue next
			}
		}
		late = append(late, t)
	}
	if len(late) == 0 {
		return nil, coord.Collectors{}
	}
	collectors, err := m.recollect(ctx, table, row, cols, late)
	if err != nil {
		return nil, coord.Collectors{}
	}
	m.stats.LateTasks.Add(int64(len(late)))
	return late, collectors
}

// BackfillRow fills one base row into every definition of view over
// base — the one fill online view creation and DB.RebuildView run,
// through internal/backfill. Per definition it reads the view-key and
// materialized columns at majority and propagates that state
// (backfillPropagate). A row whose view key no acknowledged write has
// set has no view row to create: a concurrent write not yet
// acknowledged propagates itself once it is. The fill is idempotent, so
// re-issuing a failed one is always safe; the controller does.
func (m *Manager) BackfillRow(ctx context.Context, view, base, row string) error {
	if m.isClosed() {
		return ErrClosed
	}
	for _, def := range m.reg.Defs(view) {
		if def.Base != base {
			continue
		}
		cols := append([]string{def.ViewKeyColumn}, def.Materialized...)
		merged, err := m.co.Get(ctx, base, row, cols, majority(m.co), false)
		if err != nil {
			return err
		}
		if !merged[0].Exists() {
			continue
		}
		updates := make([]model.ColumnUpdate, 0, len(cols))
		for i, col := range cols {
			if merged[i].Exists() {
				updates = append(updates, model.ColumnUpdate{Column: col, Cell: merged[i]})
			}
		}
		if err := m.backfillPropagate(ctx, def, row, updates); err != nil {
			return err
		}
	}
	return nil
}

// backfillPropagate feeds one backfilled base row through the regular
// propagation machinery, targeted at a single view definition: the
// merged current base row is treated like a replayed intent (pre-image
// pool re-read at majority, anchored), so racing duplicate backfills of
// the same key and concurrent live propagations serialize on the row's
// turns in the ledger and converge by LWW — a backfill write that loses the
// race degrades into a stale-chain insert stamped below the live row's
// timestamps, exactly what path compression would later produce. The
// fill keeps retrying for as long as ctx lives (its caller is waiting on
// it; MaxPropagationRetry bounds only live propagations). It returns the
// propagation's outcome: non-nil means the pre-image read failed, the
// view was dropped, the manager closed or ctx ended.
func (m *Manager) backfillPropagate(ctx context.Context, def *Def, row string, updates []model.ColumnUpdate) error {
	t, ok := TaskFor(def, row, updates)
	if !ok {
		return nil
	}
	tasks := []Task{t}
	collectors, err := m.recollect(ctx, def.Base, row, []string{def.ViewKeyColumn}, tasks)
	if err != nil {
		return err
	}
	tasks[0].fill = ctx
	after := wait.NewCountdown(1, nil)
	m.schedule(&tasks[0], collectors.Of(def.ViewKeyColumn), nil, nil, after)
	after.Done.Wait(m.co.Park)
	// The task's outcome is set before the countdown opens its gate.
	return tasks[0].err
}

// Delete tombstones the given columns of a base row; deleting the
// view-key column removes the row from the view (it stays in the
// versioned view, marked deleted).
func (m *Manager) Delete(ctx context.Context, table, row string, columns []string, ts int64, w int, sess *Session) error {
	updates := make([]model.ColumnUpdate, 0, len(columns))
	for _, c := range columns {
		updates = append(updates, model.Deletion(c, ts))
	}
	return m.Put(ctx, table, row, updates, w, sess)
}

// schedule starts one propagation as background work of the
// coordinator, entered in the ledger under sess; after, when non-nil, is
// counted out when it ends. The per-row locking (or propagator
// serialization) happens per attempt inside the retry machinery, never
// across backoff waits — see Port.Serialize.
func (m *Manager) schedule(t *Task, vc *coord.VersionCollector, putSpan *trace.Span, sess *Session, after *wait.Countdown) {
	// Backpressure: when the backlog is full, the base-table Put
	// waits here until an older propagation completes — the bounded
	// maintenance capacity that makes sustained hot-row write storms
	// throttle instead of accumulating unbounded queues.
	if m.slots.Acquire(m.co.Park) {
		m.stats.BackpressureWaits.Add(1)
	}
	r := &retry{m: m, t: t, vc: vc, after: after}
	r.wake = r.between.Open
	// The propagation outlives the Put that caused it, so it gets its
	// own root span linked to the Put's trace rather than a child.
	r.span = putSpan.LinkedRootRetained("propagate")
	r.span.SetAttr("view", t.def.Name)
	r.span.SetAttr("base_key", t.baseKey)
	parent := context.Background()
	if t.fill != nil {
		parent = t.fill
	}
	r.ctx, r.cancel = context.WithCancelCause(parent)
	r.ctx = trace.NewContext(r.ctx, r.span)
	// The staleness clock starts at enqueue, not at execution: a
	// deliberate PropagationDelay is staleness too.
	if !m.reg.ledger.admit(r, sess, m.reg.clk.Now()) || !m.co.Go(r.run) {
		r.finish(ErrClosed)
	}
}

// retry is one propagation across the rounds of Algorithm 1, lines 5-7:
// choose a view-key guess from the collected versions and invoke
// PropagateUpdate until one attempt succeeds. Guesses are tried newest
// first; when all collected guesses fail, the propagation waits for the
// in-flight predecessor one of them names (handOff), or for more versions
// from straggler replicas or a backoff (the failing guesses' writers may
// propagate in the meantime). A live propagation is abandoned and counted
// after MaxPropagationRetry; a backfill fill, whose filler is waiting on
// it, ends with its context.
type retry struct {
	m     *Manager
	t     *Task
	vc    *coord.VersionCollector
	after *wait.Countdown
	span  *trace.Span

	// ctx bounds every round; cancel ends the propagation (the abandon
	// timer, Close). between is the loop's one wait, reused by every
	// back-off and hand-off; wake opens it.
	ctx     context.Context
	cancel  context.CancelCauseFunc
	between wait.Gate
	wake    func()

	// The ledger entry, guarded by the ledger's mutex: admission sequence
	// number (0 once out of the ledger), session and enqueue time; older
	// and newer chain the entries in admission order, prev and next those
	// of the same Task.lockKey, on every manager; successors are parked on
	// this one (handOff).
	seq          uint64
	sess         *Session
	enq          time.Time
	older, newer *retry
	prev, next   *retry
	successors   []*retry
}

// interrupt cancels the propagation and wakes its loop if it is waiting
// out a back-off.
func (r *retry) interrupt(cause error) {
	r.cancel(cause)
	r.wake()
}

// park waits for d of the registry's clock — or, with changes set, for
// the collector to learn something while it is incomplete — or for an
// interrupt, whichever is first. (An interrupt that beats the shutting
// of the gate is seen in ctx; a later one opens it.) The context of a
// fill is not a source: it is looked at on waking, at most one back-off
// later. Neither is a wake left over from an earlier back-off's sources
// a problem: the loop just tries again early.
func (r *retry) park(d time.Duration, changes bool) {
	r.between.Shut()
	if r.ctx.Err() != nil {
		return
	}
	disarm := r.m.reg.clk.AfterFunc(d, r.wake)
	if changes {
		// Once collection is complete only the backoff can make a retry
		// worthwhile; Notify then declines.
		r.vc.Notify(r.wake)
	}
	r.between.Wait(r.m.co.Park)
	disarm()
}

// run is the one drive loop of a propagation, in both modes, on every
// fabric: an attempt, then a wait, until the propagation is over.
func (r *retry) run() {
	r.finish(r.drive())
}

func (r *retry) drive() error {
	m, t := r.m, r.t
	if t.fill == nil {
		if delay := m.reg.opts.PropagationDelay; delay != nil {
			r.park(delay(), false)
		}
		// The abandon deadline runs on the injected clock, like the
		// back-off it bounds.
		disarm := m.reg.clk.AfterFunc(m.reg.opts.MaxPropagationRetry, func() { r.interrupt(context.DeadlineExceeded) })
		defer disarm()
	}
	backoff := m.reg.opts.RetryBackoff
	for first := true; ; first = false {
		switch cause := context.Cause(r.ctx); {
		case !m.reg.defines(t.def):
			// Checked before every attempt: the tables are gone, and a
			// same-named view re-created meanwhile must not receive an
			// old generation's cells.
			return fmt.Errorf("core: propagation for base row %q: %w: %q", t.baseKey, ErrViewDropped, t.def.Name)
		case cause == context.DeadlineExceeded:
			m.stats.Abandoned.Add(1)
			return fmt.Errorf("core: propagation to %q for base row %q abandoned (%v)", t.def.Name, t.baseKey, cause)
		case cause != nil:
			// Close, or the filler that was waiting on a fill gave up:
			// cut short, not given up on.
			return fmt.Errorf("core: propagation to %q for base row %q cancelled: %w", t.def.Name, t.baseKey, cause)
		}
		if done, err := r.attempt(); done {
			return err
		}
		// A failed retry gives the propagations parked on this one a retry
		// (handOff). A first attempt's failure does not: a new propagation's
		// predecessor is usually still running, and the retries it handed
		// down the chain would fail the same way.
		if !first {
			r.wakeSuccessors()
		}
		if r.handOff() {
			continue
		}
		r.park(backoff, true)
		if backoff *= 2; backoff > 50*time.Millisecond {
			backoff = 50 * time.Millisecond
		}
	}
}

// handOff parks a propagation whose attempt failed on its predecessor:
// the newest older live propagation of the same row, on any manager,
// whose view-key write one of the guesses names, and so whose row. It
// wakes when that one ends or fails a retry: with concurrent writers the
// older one may wait for this one's row, polling on its back-off, and
// each of its failures is a retry here, so no timer is needed. Edges
// point only to older propagations, so chains of them are acyclic. It
// reports false, without parking, when there is no such predecessor.
func (r *retry) handOff() bool {
	m, l := r.m, &r.m.reg.ledger
	l.mu.Lock()
	p := r.prev
	if p != nil {
		guesses := r.vc.Versions()
		for p != nil && !p.writes(guesses) {
			p = p.prev
		}
	}
	// p has not ended: it leaves the chain under l.mu before it wakes the
	// successors it has, and an early wake (an interrupt, a stale source)
	// just leaves r on its list for one spurious wake more.
	if p != nil {
		r.between.Shut()
		p.successors = append(p.successors, r)
	}
	l.mu.Unlock()
	if p == nil {
		return false
	}
	if r.ctx.Err() == nil {
		m.stats.HandOffs.Add(1)
		r.between.Wait(m.co.Park)
	}
	return true
}

// writes reports whether the propagation's view-key write is one of the
// guesses.
func (r *retry) writes(guesses []model.Cell) bool {
	if r.t.vk == nil || r.t.vk.Cell.Tombstone {
		return false
	}
	for _, g := range guesses {
		if g.Equal(r.t.vk.Cell) {
			return true
		}
	}
	return false
}

// wakeSuccessors wakes the propagations parked on r.
func (r *retry) wakeSuccessors() {
	l := &r.m.reg.ledger
	l.mu.Lock()
	woken := r.successors
	r.successors = nil
	l.mu.Unlock()
	for _, s := range woken {
		s.wake()
	}
}

// attempt runs one round: inline under the row lock (ModeLocks), or as a
// job of the base row's dedicated propagator that the loop parks on
// (ModePropagators) — the propagator is never held across a back-off, so
// other rows' jobs, and crucially the very propagations this one is
// waiting for, keep flowing.
func (r *retry) attempt() (done bool, err error) {
	if r.m.reg.pool == nil {
		return r.m.round.Try(r.ctx, r.t, r.vc)
	}
	return r.attemptOnPool()
}

func (r *retry) attemptOnPool() (done bool, err error) {
	var ran wait.Gate
	if !r.m.reg.pool.Submit(r.t.lockKey, func() {
		done, err = r.m.round.Try(r.ctx, r.t, r.vc)
		ran.Open()
	}) {
		return true, ErrClosed // the pool was shut down under the propagation
	}
	ran.Wait(r.m.co.Park)
	return done, err
}

// finish retires the propagation: its lag, span and outcome, the
// countdown of whoever scheduled it (which may mark an intent done),
// then its slot and its ledger entry — last, so that a wait on the
// ledger (Close, Quiesce, a session read) returning means none of the
// above is still to come.
func (r *retry) finish(err error) {
	m := r.m
	r.cancel(nil)
	if err == nil {
		m.reg.obs.delivered(r.t.def.Name, m.reg.clk.Now().Sub(r.enq))
	}
	r.span.Finish()
	r.t.err = err
	if r.after != nil {
		r.after.Finish(err == nil || errors.Is(err, ErrViewDropped))
	}
	m.slots.Release()
	m.reg.ledger.leave(r)
}

// GetView reads a view by view key (Algorithm 4): it returns one
// ViewRow per live row with that key, skipping stale rows, deleted
// rows and versioning anchors. columns selects view-materialized
// columns (nil = all of them). Reads that encounter a live row still
// being initialized by a concurrent propagation wait (spin) for up to
// Options.ReadSpin, per Section IV-F.
func (m *Manager) GetView(ctx context.Context, view, viewKey string, columns []string) ([]ViewRow, error) {
	m.stats.ViewReads.Add(1)
	defs := m.reg.Defs(view)
	if len(defs) == 0 {
		return nil, fmt.Errorf("core: unknown view %q", view)
	}
	if IsInternalKey(viewKey) {
		return nil, fmt.Errorf("core: view key %q is reserved", viewKey)
	}
	anySelects := false
	for _, def := range defs {
		anySelects = anySelects || def.Selects(viewKey)
	}
	if !anySelects {
		return nil, nil // outside every side's selection: no rows by definition
	}
	for _, c := range columns {
		materializedSomewhere := false
		for _, def := range defs {
			materializedSomewhere = materializedSomewhere || def.isMaterialized(c)
		}
		if !materializedSomewhere {
			return nil, fmt.Errorf("core: column %q is not materialized in view %q", c, view)
		}
	}

	deadline := m.reg.clk.Now().Add(m.reg.opts.ReadSpin)
	for {
		cells, err := m.co.GetRow(ctx, view, viewKey, majority(m.co))
		if err != nil {
			return nil, err
		}
		rows, initializing := assembleViewRows(defs, viewKey, cells, columns)
		if !initializing {
			return rows, nil
		}
		m.stats.ReadSpins.Add(1)
		if m.reg.clk.Now().After(deadline) {
			// Give up waiting; the initializing rows read as absent,
			// which asynchronous view semantics permit.
			return rows, nil
		}
		m.sleep(time.Millisecond)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
}

// assembleViewRows filters a raw versioned view row, its cells sorted
// by qualified column name, down to the application-visible live rows.
// A base key's cells share the length-prefixed frame their names start
// with, so they sit next to each other and one walk takes each group
// in turn. For join views the stored key's namespace routes each group
// to its side's definition. It reports whether any candidate live row
// was still initializing.
func assembleViewRows(defs []*Def, viewKey string, cells []model.Entry, columns []string) ([]ViewRow, bool) {
	var rows []ViewRow
	initializing := false
	for len(cells) > 0 {
		n, sz := binary.Uvarint(cells[0].Key)
		if sz <= 0 || uint64(len(cells[0].Key)-sz) < n {
			cells = cells[1:] // not a qualified name
			continue
		}
		frame := cells[0].Key[:sz+int(n)]
		end := 1
		for end < len(cells) && bytes.HasPrefix(cells[end].Key, frame) {
			end++
		}
		g := viewGroup{cells[:end], len(frame)}
		cells = cells[end:]

		ns, baseKey := frame[sz:sz], frame[sz:]
		if i := bytes.Index(baseKey, []byte(keySep)); i >= 0 {
			ns, baseKey = baseKey[:i], baseKey[i+len(keySep):]
		}
		var def *Def
		for _, d := range defs {
			if d.namespace == string(ns) {
				def = d
			}
		}
		if def == nil || !def.Selects(viewKey) {
			continue
		}
		next, ok := g.cell(ColNext)
		if !ok || next.IsNull() {
			continue // no such row (or row's pointer deleted)
		}
		if string(next.Value) != viewKey {
			continue // stale row: pointer leads elsewhere
		}
		ready, _ := g.cell(ColReady)
		if !ready.Exists() || ready.Tombstone || ready.TS < next.TS {
			// Live row created but not yet fully initialized
			// (Section IV-F's inaccessible marker).
			initializing = true
			continue
		}
		if del, _ := g.cell(ColDeleted); del.Exists() && !del.Tombstone && del.TS >= next.TS {
			continue // view key deleted in the base table
		}
		cols := columns
		if cols == nil {
			cols = def.Materialized
		}
		vr := ViewRow{ViewKey: viewKey, Table: def.namespace, BaseKey: string(baseKey), Cells: make(model.Row, len(cols))}
		for _, c := range cols {
			if cell, ok := g.cell(c); ok && !cell.IsNull() {
				vr.Cells[c] = cell
			}
		}
		rows = append(rows, vr)
	}
	slices.SortFunc(rows, func(a, b ViewRow) int {
		if c := strings.Compare(a.Table, b.Table); c != 0 {
			return c
		}
		return strings.Compare(a.BaseKey, b.BaseKey)
	})
	return rows, initializing
}

// viewGroup is one base key's cells inside a view row: entries whose
// qualified names share a frame of the given length.
type viewGroup struct {
	cells []model.Entry
	frame int
}

// cell returns the group's cell of column col, or the zero Cell and
// false if it has none, as a lookup in a map of the group would.
func (g viewGroup) cell(col string) (model.Cell, bool) {
	for _, e := range g.cells {
		if string(e.Key[g.frame:]) == col {
			return e.Cell, true
		}
	}
	return model.Cell{}, false
}

package core

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"vstore/internal/coord"
	"vstore/internal/model"
	"vstore/internal/trace"
)

// Manager executes view-aware base-table writes (Algorithm 1) and view
// reads (Algorithm 4) on behalf of one coordinator node. All managers
// of a cluster share one Registry, which carries the view catalog and
// the propagation concurrency control.
type Manager struct {
	reg *Registry
	co  *coord.Coordinator
	// round is the shared propagation protocol over this coordinator.
	round Round

	pending atomic.Int64 // in-flight propagations

	// slots implements the bounded propagation backlog
	// (Options.MaxPendingPropagations); nil when unbounded.
	slots chan struct{}

	// il, when non-nil, write-ahead-logs propagation intents so a
	// crashed coordinator's unfinished view maintenance is re-enqueued
	// at recovery. Set once before the manager serves traffic.
	il IntentLog

	stats Stats
}

// IntentLog is the durability hook for propagation intents
// (implemented over internal/wal by the vstore layer). LogStart must
// make the intent durable before Put acknowledges; LogDone marks it
// complete so recovery stops replaying it. Replay is idempotent — the
// propagation machinery merges base state read at quorum and every
// cell carries the base write's timestamp — so marking done strictly
// after completion is safe even when a crash loses the done record.
type IntentLog interface {
	NextIntentID() uint64
	LogStart(id uint64, table, row string, updates []model.ColumnUpdate) error
	LogDone(id uint64) error
}

// SetIntentLog installs the intent durability hook. Must be called
// before the manager serves writes.
func (m *Manager) SetIntentLog(il IntentLog) { m.il = il }

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
	// ViewReads counts GetView calls.
	ViewReads atomic.Int64
	// ReadSpins counts view reads that had to wait on an initializing
	// row.
	ReadSpins atomic.Int64
}

// NewManager returns a view manager bound to one coordinator.
func NewManager(reg *Registry, co *coord.Coordinator) *Manager {
	m := &Manager{reg: reg, co: co}
	m.round = Round{
		Port: NewCoordPort(co, m.serialize), Stats: &m.stats, Obs: reg.obs,
		MaxChainHops: reg.opts.MaxChainHops, PathCompression: reg.opts.PathCompression,
	}
	if n := reg.opts.MaxPendingPropagations; n > 0 {
		m.slots = make(chan struct{}, n)
	}
	return m
}

// Stats exposes the counters.
func (m *Manager) Stats() *Stats { return &m.stats }

// Registry returns the shared catalog.
func (m *Manager) Registry() *Registry { return m.reg }

// majority is the read and write quorum used for all view-table
// operations during propagation, per Algorithm 2's note.
func majority(co *coord.Coordinator) int { return co.N()/2 + 1 }

// coordPort is the Port over a coordinator: majority quorum rounds, and
// whatever serialization its runtime brings.
type coordPort struct {
	co        *coord.Coordinator
	serialize func(key string, exclusive bool) (release func())
}

// NewCoordPort returns the Port every runtime with a real coordinator
// runs propagation rounds over — Manager with the registry's lock
// service, the simulator with its virtual-time locks. serialize is
// Port.Serialize.
func NewCoordPort(co *coord.Coordinator, serialize func(key string, exclusive bool) (release func())) Port {
	return coordPort{co, serialize}
}

func (p coordPort) Get(ctx context.Context, table, row string, cols []string) (model.Row, error) {
	return p.co.Get(ctx, table, row, cols, majority(p.co), false)
}

func (p coordPort) MultiGet(ctx context.Context, table string, rows, cols []string) ([]model.Row, error) {
	reads := make([]coord.RowRead, len(rows))
	for i, row := range rows {
		reads[i] = coord.RowRead{Row: row, Columns: cols}
	}
	return p.co.MultiGet(ctx, table, reads, majority(p.co))
}

func (p coordPort) Put(ctx context.Context, table, row string, updates []model.ColumnUpdate) error {
	return p.co.Put(ctx, table, row, updates, majority(p.co))
}

func (p coordPort) Serialize(key string, exclusive bool) func() { return p.serialize(key, exclusive) }

// serialize is the production Port.Serialize: the registry's lock
// service. In ModePropagators a round already runs on the row's
// dedicated propagator, which provides the serialization.
func (m *Manager) serialize(key string, exclusive bool) func() {
	switch {
	case m.reg.opts.Mode != ModeLocks:
		return func() {}
	case exclusive:
		return m.reg.locks.Lock(key)
	default:
		return m.reg.locks.RLock(key)
	}
}

// PendingPropagations reports in-flight propagation count.
func (m *Manager) PendingPropagations() int { return int(m.pending.Load()) }

// Quiesce blocks until no propagation scheduled through this manager
// is in flight, or the context expires.
func (m *Manager) Quiesce(ctx context.Context) error {
	for {
		if m.PendingPropagations() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-m.reg.clk.After(time.Millisecond):
		}
	}
}

// Put performs a base-table write with write quorum w, implementing
// Algorithm 1: when the table has views and the update touches a view
// key or view-materialized column, the write carries a pre-read of the
// current view-key versions and triggers asynchronous update
// propagation after the client-visible write completes.
//
// onPropagated, when non-nil, is invoked once per affected view after
// that view's propagation finishes (successfully or not); it is the
// hook session guarantees build on.
func (m *Manager) Put(ctx context.Context, table, row string, updates []model.ColumnUpdate, w int, onPropagated func(view string, err error)) error {
	if m.reg.IsView(table) {
		return fmt.Errorf("core: table %q is a view; views are not updateable", table)
	}
	tasks, cols := m.buildTasks(table, row, updates)
	if len(tasks) == 0 {
		// Algorithm 1, else branch: a plain Put. The post-ack catalog
		// fence still runs: a view defined while this write was in
		// flight must see it propagate (see scheduleLate).
		if err := m.co.Put(ctx, table, row, updates, w); err != nil {
			return err
		}
		return m.awaitIfSync(ctx, m.scheduleLate(ctx, table, row, updates, nil, trace.FromContext(ctx), onPropagated))
	}

	// One round: the Get of Algorithm 1 line 2 rides on the Put (the
	// combination Section IV-C proposes; the prototype ran two rounds,
	// which internal/bench reproduces from the driver for Figures 5/6).
	collectors, err := m.co.PutWithPreRead(ctx, table, row, updates, w, cols)
	if err != nil {
		return err
	}

	// Durable mode: the intent is logged after the quorum write
	// succeeds and before the Put acknowledges, so a coordinator crash
	// between ack and propagation completion leaves a replayable
	// record instead of a permanently stale view.
	var intentErr error
	var intentID uint64
	if m.il != nil {
		intentID = m.il.NextIntentID()
		intentErr = m.il.LogStart(intentID, table, row, updates)
	}

	var doneChans []<-chan struct{}
	putSpan := trace.FromContext(ctx)
	for i := range tasks {
		t := &tasks[i]
		doneChans = append(doneChans, m.schedule(t, collectors[t.def.ViewKeyColumn], putSpan, onPropagated))
	}
	doneChans = append(doneChans, m.scheduleLate(ctx, table, row, updates, tasks, putSpan, onPropagated)...)
	if intentErr != nil {
		// The base write happened and propagation is scheduled, but
		// durability of the intent failed: surface it like any other
		// failed (unacknowledged) write so the client retries.
		return fmt.Errorf("core: log propagation intent: %w", intentErr)
	}
	if m.il != nil {
		// A lost done record only costs an idempotent replay.
		afterAll(doneChans, func() { _ = m.il.LogDone(intentID) })
	}
	return m.awaitIfSync(ctx, doneChans)
}

// awaitIfSync implements Options.SyncPropagation: the Put returns only
// once the propagations it started have finished.
func (m *Manager) awaitIfSync(ctx context.Context, dones []<-chan struct{}) error {
	if !m.reg.opts.SyncPropagation {
		return nil
	}
	for _, d := range dones {
		select {
		case <-d:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// afterAll runs fn once every propagation in dones has finished.
func afterAll(dones []<-chan struct{}, fn func()) {
	go func() {
		for _, d := range dones {
			<-d
		}
		fn()
	}()
}

// buildTasks splits a base-table update set into per-view propagation
// tasks plus the sorted view-key columns the write must pre-read.
func (m *Manager) buildTasks(table, row string, updates []model.ColumnUpdate) ([]Task, []string) {
	var tasks []Task
	preCols := map[string]bool{}
	for _, def := range m.reg.ViewsOn(table) {
		t, ok := TaskFor(def, row, updates)
		if !ok {
			continue
		}
		tasks = append(tasks, t)
		preCols[def.ViewKeyColumn] = true
	}
	cols := make([]string, 0, len(preCols))
	for c := range preCols {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	return tasks, cols
}

// recollect builds the pre-image pools of a propagation that has no Put
// to ride on: the current versions of cols re-read at majority quorum,
// each pool seeded with the NULL guess. The write-time pre-images are
// gone (lost with a crashed coordinator, or never taken because the
// view did not exist yet); NULL keeps the chain anchor reachable, so a
// pool holding only the replayed write itself cannot spin on a view row
// that was never created.
func (m *Manager) recollect(ctx context.Context, table, row string, cols []string) (coord.Collectors, error) {
	collectors, err := m.co.GetVersions(ctx, table, row, cols, majority(m.co))
	for _, vc := range collectors {
		vc.Seed(model.NullCell)
	}
	return collectors, err
}

// Repropagate re-enqueues a recovered propagation intent: it re-reads
// the current view-key versions at majority quorum and schedules the
// same per-view tasks a fresh Put of updates would have. onDone fires
// once every affected view's propagation finishes — the caller marks
// the intent done there. An error means nothing was scheduled and the
// intent should stay pending (it survives in the log for the next
// recovery).
func (m *Manager) Repropagate(ctx context.Context, table, row string, updates []model.ColumnUpdate, onDone func()) error {
	tasks, cols := m.buildTasks(table, row, updates)
	if len(tasks) == 0 {
		// The view catalog changed since the intent was logged; there
		// is nothing left to converge.
		if onDone != nil {
			onDone()
		}
		return nil
	}
	collectors, err := m.recollect(ctx, table, row, cols)
	if err != nil {
		return err
	}
	var doneChans []<-chan struct{}
	for i := range tasks {
		t := &tasks[i]
		doneChans = append(doneChans, m.schedule(t, collectors[t.def.ViewKeyColumn], nil, nil))
	}
	if onDone != nil {
		afterAll(doneChans, onDone)
	}
	return nil
}

// scheduleLate closes the online-CreateView race. A view defined after
// buildTasks ran but before the quorum write acknowledged is missing
// from the scheduled tasks, and the new view's backfill scan may
// equally have read this row before the write landed — which would
// leave the update permanently unpropagated. Re-checking the catalog
// after the ack guarantees every acknowledged write reaches every view
// defined by ack time; overlap with the backfill is harmless because
// both paths are idempotent LWW-stamped writes. Late tasks get a
// NULL-seeded pool like intent replay, since the write's combined
// pre-read did not cover their view-key columns. A pre-read failure
// here drops the late propagation (rare double fault: catalog change
// racing an unreachable quorum); the view's backfill scan or a
// RebuildView repairs such rows.
func (m *Manager) scheduleLate(ctx context.Context, table, row string, updates []model.ColumnUpdate, scheduled []Task, putSpan *trace.Span, onPropagated func(string, error)) []<-chan struct{} {
	late, cols := m.buildTasks(table, row, updates)
	if len(late) == len(scheduled) {
		return nil
	}
	have := make(map[string]bool, len(scheduled))
	for _, t := range scheduled {
		have[t.def.Name] = true
	}
	missing := make([]*Task, 0, len(late))
	for i := range late {
		if !have[late[i].def.Name] {
			missing = append(missing, &late[i])
		}
	}
	if len(missing) == 0 {
		return nil
	}
	collectors, err := m.recollect(ctx, table, row, cols)
	if err != nil {
		return nil
	}
	var intentID uint64
	var intentLogged bool
	if m.il != nil {
		intentID = m.il.NextIntentID()
		intentLogged = m.il.LogStart(intentID, table, row, updates) == nil
	}
	dones := make([]<-chan struct{}, 0, len(missing))
	for _, t := range missing {
		dones = append(dones, m.schedule(t, collectors[t.def.ViewKeyColumn], putSpan, onPropagated))
	}
	if intentLogged {
		afterAll(dones, func() { _ = m.il.LogDone(intentID) })
	}
	return dones
}

// BackfillPropagate feeds one backfilled base row through the regular
// propagation machinery, targeted at a single view definition: the
// merged current base row is treated like a replayed intent (pre-image
// pool re-read at majority and NULL-seeded), so racing duplicate
// backfills of the same key and concurrent live propagations serialize
// on the per-row lock service and converge by LWW — a backfill write
// that loses the race degrades into a stale-chain insert stamped below
// the live row's timestamps, exactly what path compression would later
// produce. The fill keeps retrying for as long as ctx lives (its caller
// is waiting on it; MaxPropagationRetry bounds only live propagations).
// It returns the propagation's outcome: non-nil means the pre-image read
// failed or the fill was abandoned because ctx ended. The fill is
// idempotent, so re-issuing it is always safe.
func (m *Manager) BackfillPropagate(ctx context.Context, def *Def, row string, updates []model.ColumnUpdate) error {
	t, ok := TaskFor(def, row, updates)
	if !ok {
		return nil
	}
	collectors, err := m.recollect(ctx, def.Base, row, []string{def.ViewKeyColumn})
	if err != nil {
		return err
	}
	vc := collectors[def.ViewKeyColumn]
	t.fill = ctx
	// onPropagated happens-before close(done) inside schedule's finish,
	// so reading perr after the receive is race-free.
	var perr error
	<-m.schedule(&t, vc, nil, func(_ string, err error) { perr = err })
	return perr
}

// Delete tombstones the given columns of a base row; deleting the
// view-key column removes the row from the view (it stays in the
// versioned view, marked deleted).
func (m *Manager) Delete(ctx context.Context, table, row string, columns []string, ts int64, w int, onPropagated func(view string, err error)) error {
	updates := make([]model.ColumnUpdate, 0, len(columns))
	for _, c := range columns {
		updates = append(updates, model.Deletion(c, ts))
	}
	return m.Put(ctx, table, row, updates, w, onPropagated)
}

// schedule hands a propagation task to the configured concurrency
// control and returns a channel closed when it finishes. The per-row
// locking (or propagator serialization) happens per attempt inside the
// retry machinery, never across backoff waits — see Port.Serialize.
func (m *Manager) schedule(t *Task, vc *coord.VersionCollector, putSpan *trace.Span, onPropagated func(string, error)) <-chan struct{} {
	// Backpressure: when the backlog is full, the base-table Put
	// blocks here until an older propagation completes — the bounded
	// maintenance capacity that makes sustained hot-row write storms
	// throttle instead of accumulating unbounded queues.
	if m.slots != nil {
		m.slots <- struct{}{}
	}
	m.pending.Add(1)
	// The staleness gauge clock starts at enqueue, not at execution:
	// a deliberate PropagationDelay is staleness too.
	obsID := m.reg.obs.startPropagation(t.def.Name, m.reg.clk.Now())
	// The propagation outlives the Put that caused it, so it gets its
	// own root span linked to the Put's trace rather than a child.
	psp := putSpan.LinkedRootRetained("propagate")
	psp.SetAttr("view", t.def.Name)
	psp.SetAttr("base_key", t.baseKey)
	done := make(chan struct{})
	finish := func(err error) {
		m.reg.obs.finishPropagation(obsID, t.def.Name, m.reg.clk.Now(), err)
		psp.Finish()
		if onPropagated != nil {
			onPropagated(t.def.Name, err)
		}
		m.pending.Add(-1)
		if m.slots != nil {
			<-m.slots
		}
		close(done)
	}
	start := func() {
		switch m.reg.opts.Mode {
		case ModePropagators:
			m.runPropagationViaPool(t, vc, psp, finish)
		default: // ModeLocks
			go func() {
				finish(m.runPropagation(t, vc, psp))
			}()
		}
	}
	if d := m.reg.opts.PropagationDelay; d != nil && t.fill == nil {
		m.reg.clk.AfterFunc(d(), start)
	} else {
		start()
	}
	return done
}

// retry is one propagation's state across the rounds of Algorithm 1,
// lines 5-7: choose a view-key guess from the collected versions and
// invoke PropagateUpdate until one attempt succeeds. Guesses are tried
// newest first; when all collected guesses fail, the propagation waits
// for more versions from straggler replicas or retries after a backoff
// (the failing guesses' writers may propagate in the meantime). A live
// propagation is abandoned and counted after MaxPropagationRetry; a
// backfill fill, whose filler is waiting on it, when its context ends.
type retry struct {
	m       *Manager
	t       *Task
	vc      *coord.VersionCollector
	ctx     context.Context
	cancel  context.CancelCauseFunc
	disarm  func() bool // stops the abandon timer; nil for a fill
	backoff time.Duration
}

// release frees the retry's context and timer once the propagation is
// over.
func (r *retry) release() {
	if r.disarm != nil {
		r.disarm()
	}
	r.cancel(nil)
}

func (m *Manager) newRetry(t *Task, vc *coord.VersionCollector, sp *trace.Span) *retry {
	r := &retry{m: m, t: t, vc: vc, backoff: m.reg.opts.RetryBackoff}
	if t.fill != nil {
		r.ctx, r.cancel = context.WithCancelCause(t.fill)
	} else {
		// The abandon deadline runs on the injected clock, like the
		// back-off it bounds.
		r.ctx, r.cancel = context.WithCancelCause(context.Background())
		r.disarm = m.reg.clk.AfterFunc(m.reg.opts.MaxPropagationRetry, func() { r.cancel(context.DeadlineExceeded) })
	}
	r.ctx = trace.NewContext(r.ctx, sp)
	return r
}

// attempt runs one round. It reports over=true with the propagation's
// outcome, or over=false with how long to back off before the next one.
func (r *retry) attempt() (over bool, err error, wait time.Duration) {
	done, err := r.m.round.Try(r.ctx, r.t, r.vc)
	if done {
		return true, err, 0
	}
	if r.ctx.Err() != nil {
		r.m.stats.Abandoned.Add(1)
		return true, fmt.Errorf("core: propagation to %q for base row %q abandoned (%v)",
			r.t.def.Name, r.t.baseKey, context.Cause(r.ctx)), 0
	}
	wait = r.backoff
	if r.backoff *= 2; r.backoff > 50*time.Millisecond {
		r.backoff = 50 * time.Millisecond
	}
	return false, nil, wait
}

// runPropagation drives the retry loop on the calling goroutine
// (ModeLocks): the row lock is taken per round inside Round.Try, never
// across the wait below.
func (m *Manager) runPropagation(t *Task, vc *coord.VersionCollector, sp *trace.Span) error {
	r := m.newRetry(t, vc, sp)
	defer r.release()
	for {
		over, err, wait := r.attempt()
		if over {
			return err
		}
		// Changed() stays closed once collection completes (so late
		// waiters see completion); after that only the backoff can make
		// a retry worthwhile, so stop selecting on it or the loop would
		// busy-spin through its remaining retries.
		changed := vc.Changed()
		if vc.Complete() {
			changed = nil
		}
		select {
		case <-r.ctx.Done():
		case <-changed:
		case <-m.reg.clk.After(wait):
		}
	}
}

// runPropagationViaPool drives the same retry loop through the
// dedicated propagator pool (ModePropagators). Each round runs as one
// pool job on the base row's propagator; between rounds the job
// reschedules itself with a timer instead of sleeping, so a propagation
// waiting for its guesses to resolve never blocks the propagator —
// other rows' jobs, and crucially the very propagations this one is
// waiting for, keep flowing.
func (m *Manager) runPropagationViaPool(t *Task, vc *coord.VersionCollector, sp *trace.Span, finish func(error)) {
	r := m.newRetry(t, vc, sp)
	var step func()
	submit := func() {
		if !m.reg.pool.Submit(t.lockKey, step) {
			// Pool shut down: finish inline.
			r.release()
			finish(m.runPropagation(t, vc, sp))
		}
	}
	step = func() {
		over, err, wait := r.attempt()
		if over {
			r.release()
			finish(err)
			return
		}
		m.reg.clk.AfterFunc(wait, submit)
	}
	submit()
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
		if c == ColBase {
			continue
		}
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
		cells, err := m.co.Get(ctx, view, viewKey, nil, majority(m.co), true)
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
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-m.reg.clk.After(time.Millisecond):
		}
	}
}

// assembleViewRows groups a raw versioned view row by stored base key
// and filters it down to the application-visible live rows. For join
// views the stored key's namespace routes each group to its side's
// definition. It reports whether any candidate live row was still
// initializing.
func assembleViewRows(defs []*Def, viewKey string, cells model.Row, columns []string) ([]ViewRow, bool) {
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
			continue // no such row (or row's pointer deleted)
		}
		if string(next.Value) != viewKey {
			continue // stale row: pointer leads elsewhere
		}
		ready := g[ColReady]
		if !ready.Exists() || ready.Tombstone || ready.TS < next.TS {
			// Live row created but not yet fully initialized
			// (Section IV-F's inaccessible marker).
			initializing = true
			continue
		}
		if del := g[ColDeleted]; del.Exists() && !del.Tombstone && del.TS >= next.TS {
			continue // view key deleted in the base table
		}
		cols := columns
		if cols == nil {
			cols = def.Materialized
		}
		vr := ViewRow{ViewKey: viewKey, Table: ns, BaseKey: baseKey, Cells: model.Row{}}
		for _, c := range cols {
			if c == ColBase {
				continue
			}
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

// Package backfill runs the online half of view creation: a per-view
// controller that scans base-table partitions node-by-node (riding
// each node's memtable/sstable iterators through a paged row scan)
// while live writes keep flowing. Every scanned key is pushed through
// the regular propagation machinery with base-cell timestamps, so a
// backfill write racing a live update degrades into a stale-chain
// insert stamped below the live row — the versioned-row chain makes
// cutover natural and idempotent. A view transitions Backfilling →
// Live only once every partition's scan high-water mark has passed its
// snapshot point (the scan drained the rows that existed when it
// started; rows written later are covered by live propagation).
//
// Progress is checkpointed through a Store after every page, so a
// crash mid-backfill resumes from the last durable mark instead of
// rescanning the table. Checkpoints are pure optimization: losing one
// only costs a rescan, because every backfill write is idempotent.
//
// The controller starts no goroutine and reads no clock channel of its
// own: its scans and fills are work of its Host, and every wait — a
// free fill slot, a page's fills, the partitions of a scan, the
// throttle, a fill's back-off, Drop and Close waiting out a run — arms
// a wake and parks through the Host, so one thread of control can host
// it (the simulator's nodes run this controller). Only Wait and Sweep,
// which user goroutines call, wait on a context.
package backfill

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vstore/internal/clock"
	"vstore/internal/physical"
	"vstore/internal/wait"
)

// State is a view's lifecycle state.
type State string

const (
	// StateBackfilling means the view is defined and maintained by live
	// propagation, but the scan of pre-existing base rows is still
	// running: reads may miss old rows.
	StateBackfilling State = "backfilling"
	// StateLive means every partition's scan completed; the view is
	// complete up to normal propagation staleness.
	StateLive State = "live"
)

// PartitionMark is one partition's scan progress inside a Checkpoint.
type PartitionMark struct {
	// Base and Node identify the partition: one base table's rows as
	// stored on one node.
	Base string `json:"base"`
	Node int    `json:"node"`
	// Cursor is the last row name already backfilled; the scan resumes
	// strictly after it (storage-key order).
	Cursor string `json:"cursor,omitempty"`
	// Done marks the partition's high-water mark past its snapshot
	// point.
	Done bool `json:"done,omitempty"`
}

// Checkpoint is a view's durable backfill progress.
type Checkpoint struct {
	View string `json:"view"`
	// SnapshotTS records when the backfill started (clock microseconds);
	// diagnostic only — correctness comes from scanning to exhaustion,
	// which strictly passes the snapshot point.
	SnapshotTS int64           `json:"snapshot_ts"`
	Marks      []PartitionMark `json:"marks"`
}

// Store persists checkpoints. Implementations must make Save
// all-or-nothing (a torn checkpoint would be worse than none).
type Store interface {
	Save(cp Checkpoint) error
	Load(view string) (Checkpoint, bool, error)
	Clear(view string) error
}

// Partition is one shard of a backfill scan. Scan pages through the
// node's local row names after a cursor; the local content is only a
// discovery hint — the Filler quorum-reads every row before writing,
// so a stale replica can never seed view state on its own.
type Partition struct {
	Base string
	Node int
	Scan func(afterRow string, limit int) []string
}

// Filler backfills one base row into the view (quorum-merge the row,
// then propagate it with base-cell timestamps). It must be idempotent:
// resumed scans, overlapping partitions and retries replay keys.
type Filler func(ctx context.Context, base, row string) error

// Host runs a controller's work and its waits; coord.Coordinator is
// one. Go starts f as background work — a goroutine, or a process of
// the simulator's event fabric — and reports false once the host is
// shutting down. Park suspends the caller until the wake handed to arm
// is called.
type Host interface {
	Go(f func()) bool
	Park(arm func(wake func()))
}

// Options tunes a Controller.
type Options struct {
	// Store persists checkpoints; nil keeps them in memory (resume
	// within the process only).
	Store Store
	// Clock drives throttling and fill back-offs; nil uses the wall
	// clock.
	Clock clock.Clock
	// BatchSize is rows per scan page (and checkpoint cadence).
	// Default 256.
	BatchSize int
	// Throttle, when positive, sleeps between pages so a large backfill
	// yields to foreground traffic.
	Throttle time.Duration
	// OnLive, when non-nil, runs after a view transitions to Live
	// (outside controller locks; used to persist the state change).
	OnLive func(view string)
}

// A run's fills: at most parallel in flight across all of its
// partitions (a key-at-a-time fill pays quorum round trips, so some
// overlap is essential on a latent network). A failed fill is issued
// again after a back-off doubling from fillBackoff up to maxFillBackoff,
// at most fillAttempts times in all — several seconds of a quorum being
// unreachable — before the run fails.
const (
	parallel       = 32
	fillAttempts   = 100
	fillBackoff    = time.Millisecond
	maxFillBackoff = 50 * time.Millisecond
)

// Progress is one view's externally visible backfill state.
type Progress struct {
	State          State `json:"state"`
	Scanned        int64 `json:"scanned,omitempty"`
	Partitions     int   `json:"partitions,omitempty"`
	PartitionsDone int   `json:"partitions_done,omitempty"`
	// Resumed reports that this run continued from a persisted
	// checkpoint rather than scanning from the start.
	Resumed bool `json:"resumed,omitempty"`
}

// Controller owns every view's backfill lifecycle for one DB.
type Controller struct {
	host Host
	opts Options
	clk  clock.Clock

	mu     sync.Mutex
	views  map[string]*run
	closed bool
}

// run is one scan of a view's partitions. Its fields other than scanned
// are guarded by Controller.mu.
type run struct {
	view    string
	state   State
	cp      Checkpoint
	parts   []Partition
	fill    Filler
	scanned atomic.Int64
	resumed bool
	err     error
	// ctx ends when the run is halted; sleepers are the parked sleeps
	// halt wakes, in the order they began.
	ctx      context.Context
	cancel   context.CancelFunc
	sleepers []*wait.Gate
	slots    *wait.Slots     // bounds concurrent fills across partitions
	claimed  map[string]bool // keys claimed by some partition this run
	// ended is set, enders (Drop and Close parked on the run) are woken
	// and done is closed once the run's work has stopped; live closes
	// when the state reaches Live.
	ended  bool
	enders []func()
	done   chan struct{}
	live   chan struct{}
}

func newRun(parent context.Context, cp Checkpoint, parts []Partition, fill Filler) *run {
	r := &run{
		view: cp.View, state: StateBackfilling, cp: cp, parts: parts, fill: fill,
		slots: wait.NewSlots(parallel), claimed: map[string]bool{},
		done: make(chan struct{}), live: make(chan struct{}),
	}
	r.ctx, r.cancel = context.WithCancel(parent)
	return r
}

// New returns a Controller whose work and waits run on host.
func New(host Host, opts Options) *Controller {
	if opts.BatchSize <= 0 {
		opts.BatchSize = 256
	}
	if opts.Store == nil {
		opts.Store = NewMemStore()
	}
	return &Controller{host: host, opts: opts, clk: clock.Or(opts.Clock), views: map[string]*run{}}
}

// Track registers a view that is already Live (defined from birth, or
// recovered in Live state) so State and Progress report it.
func (c *Controller) Track(view string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.views[view]; !ok {
		r := newRun(context.Background(), Checkpoint{View: view}, nil, nil)
		r.state, r.ended = StateLive, true
		r.cancel()
		close(r.live)
		close(r.done)
		c.views[view] = r
	}
}

// Start launches (or, when the Store holds a checkpoint for the view,
// resumes) a backfill over the given partitions. It returns
// immediately; Wait blocks until the view is Live.
func (c *Controller) Start(view string, snapshotTS int64, parts []Partition, fill Filler) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("backfill: controller closed")
	}
	if r, ok := c.views[view]; ok && r.state == StateBackfilling {
		c.mu.Unlock()
		return fmt.Errorf("backfill: view %q is already backfilling", view)
	}
	cp := Checkpoint{View: view, SnapshotTS: snapshotTS}
	resumed := false
	if prev, ok, err := c.opts.Store.Load(view); err == nil && ok && prev.View == view {
		byPart := make(map[string]PartitionMark, len(prev.Marks))
		for _, m := range prev.Marks {
			byPart[partKey(m.Base, m.Node)] = m
		}
		for _, p := range parts {
			if m, ok := byPart[partKey(p.Base, p.Node)]; ok && (m.Cursor != "" || m.Done) {
				resumed = true
			}
		}
		if resumed {
			cp.SnapshotTS = prev.SnapshotTS
			for _, p := range parts {
				m := byPart[partKey(p.Base, p.Node)]
				cp.Marks = append(cp.Marks, PartitionMark{Base: p.Base, Node: p.Node, Cursor: m.Cursor, Done: m.Done})
			}
		}
	}
	if !resumed {
		for _, p := range parts {
			cp.Marks = append(cp.Marks, PartitionMark{Base: p.Base, Node: p.Node})
		}
	}
	r := newRun(context.Background(), cp, parts, fill)
	r.resumed = resumed
	c.views[view] = r
	c.mu.Unlock()
	c.spawn(r, func() { c.runBackfill(r) })
	return nil
}

func partKey(base string, node int) string { return fmt.Sprintf("%s\x00%d", base, node) }

// Sweep fills every row of the partitions once, on the caller, with the
// controller's page size and fill parallelism but no lifecycle and no
// checkpoints: re-deriving a view that already exists (DB.RebuildView)
// changes neither its state nor what a crash must resume.
func (c *Controller) Sweep(ctx context.Context, parts []Partition, fill Filler) error {
	r := newRun(ctx, Checkpoint{Marks: make([]PartitionMark, len(parts))}, parts, fill)
	defer r.cancel()
	stop := context.AfterFunc(ctx, func() { c.halt(r, ctx.Err()) })
	defer stop()
	c.scanAll(r)
	c.mu.Lock()
	defer c.mu.Unlock()
	return r.err
}

// spawn starts f as work of the host. A host that is shutting down
// refuses new work: the run is then halted and f runs on the caller,
// where it finds the run's context ended and only counts itself out.
func (c *Controller) spawn(r *run, f func()) {
	if !c.host.Go(f) {
		c.halt(r, fmt.Errorf("backfill: host stopped"))
		f()
	}
}

// halt stops a run: its first error is the run's, its context ends and
// its sleeps end early.
func (c *Controller) halt(r *run, err error) {
	c.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.cancel()
	sleepers := r.sleepers
	r.sleepers = nil
	c.mu.Unlock()
	for _, g := range sleepers {
		g.Open()
	}
}

// sleep parks the caller for d of the controller's clock, or until the
// run is halted.
func (c *Controller) sleep(r *run, d time.Duration) {
	g := &wait.Gate{}
	c.mu.Lock()
	if r.ctx.Err() != nil {
		c.mu.Unlock()
		return
	}
	r.sleepers = append(r.sleepers, g)
	c.mu.Unlock()
	disarm := c.clk.AfterFunc(d, g.Open)
	g.Wait(c.host.Park)
	disarm()
	c.mu.Lock()
	r.sleepers = slices.DeleteFunc(r.sleepers, func(s *wait.Gate) bool { return s == g })
	c.mu.Unlock()
}

func (c *Controller) runBackfill(r *run) {
	c.scanAll(r)
	c.mu.Lock()
	live := r.err == nil
	if live {
		r.state = StateLive
	}
	c.mu.Unlock()
	if live {
		// The checkpoint has served its purpose; clearing it is best-effort
		// (a stale Done-everywhere checkpoint resumes to an instant no-op).
		_ = c.opts.Store.Clear(r.view)
		close(r.live)
		if c.opts.OnLive != nil {
			c.opts.OnLive(r.view)
		}
	}
	c.mu.Lock()
	r.ended = true
	enders := r.enders
	r.enders = nil
	c.mu.Unlock()
	close(r.done)
	for _, wake := range enders {
		wake()
	}
}

// awaitEnd parks the caller until r's work has stopped.
func (c *Controller) awaitEnd(r *run) {
	c.mu.Lock()
	if r.ended {
		c.mu.Unlock()
		return
	}
	c.host.Park(func(wake func()) {
		r.enders = append(r.enders, wake)
		c.mu.Unlock()
	})
}

// scanAll scans every unfinished partition to exhaustion, recording the
// first failure in r.err. Partitions scan concurrently — each node
// pages its own rows — while the run's fill slots bound total in-flight
// fills.
func (c *Controller) scanAll(r *run) {
	var todo []int
	c.mu.Lock()
	for i, m := range r.cp.Marks {
		if !m.Done {
			todo = append(todo, i)
		}
	}
	c.mu.Unlock()
	if len(todo) == 0 {
		return
	}
	scans := wait.NewCountdown(len(todo), nil)
	for _, i := range todo {
		c.spawn(r, func() {
			if err := c.scanPartition(r, i); err != nil {
				c.halt(r, err) // the first failure stops the sibling scans
			}
			scans.Finish(true)
		})
	}
	scans.Done.Wait(c.host.Park)
}

// scanPartition pages one partition to exhaustion: its high-water mark
// passing "no more rows" strictly passes the snapshot point, because
// the scan order is stable and rows are never reordered below the
// cursor.
func (c *Controller) scanPartition(r *run, idx int) error {
	p := r.parts[idx]
	for {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		c.mu.Lock()
		cursor := r.cp.Marks[idx].Cursor
		c.mu.Unlock()
		rows := p.Scan(cursor, c.opts.BatchSize)
		if len(rows) == 0 {
			c.checkpoint(r, idx, cursor, true)
			return nil
		}
		if !c.fillPage(r, p.Base, rows) {
			return r.ctx.Err()
		}
		c.checkpoint(r, idx, rows[len(rows)-1], false)
		if d := c.opts.Throttle; d > 0 {
			c.sleep(r, d)
		}
	}
}

// fillPage fills one page and reports whether every fill went through.
// Replicated keys surface in up to N partitions; the claim set makes one
// partition fill each key and the rest skip it (claims are in-memory
// only — after a crash-resume a key may be refilled, which is
// idempotent). It returns only once the whole page has settled, so a
// checkpoint never covers an unfilled row.
func (c *Controller) fillPage(r *run, base string, rows []string) bool {
	var mine []string
	c.mu.Lock()
	for _, row := range rows {
		if k := base + "\x00" + row; !r.claimed[k] {
			r.claimed[k] = true
			mine = append(mine, row)
		}
	}
	c.mu.Unlock()
	if len(mine) == 0 {
		return true
	}
	// then runs before Done opens, so reading ok after the wait is
	// race-free.
	ok := false
	page := wait.NewCountdown(len(mine), func(complete bool) { ok = complete })
	for _, row := range mine {
		r.slots.Acquire(c.host.Park)
		c.spawn(r, func() {
			err := c.fillRow(r, base, row)
			if err != nil {
				c.halt(r, fmt.Errorf("backfill: %s row %q: %w", base, row, err))
			} else {
				r.scanned.Add(1)
			}
			r.slots.Release()
			page.Finish(err == nil)
		})
	}
	page.Done.Wait(c.host.Park)
	return ok
}

// fillRow issues one row's fill until it goes through, the run is
// halted or fillAttempts are spent.
func (c *Controller) fillRow(r *run, base, row string) error {
	backoff := fillBackoff
	for attempt := 1; ; attempt++ {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		err := r.fill(r.ctx, base, row)
		if err == nil || attempt == fillAttempts {
			return err
		}
		c.sleep(r, backoff)
		backoff = min(2*backoff, maxFillBackoff)
	}
}

// checkpoint advances partition idx's mark and persists the run's
// progress — unless the run was halted: then nothing more is written,
// since after a Close the process may be gone. Save failures are
// swallowed: a lost checkpoint only widens the rescan window after a
// crash, and backfill writes are idempotent — aborting the backfill over
// it would turn a benign storage hiccup into an unavailable view.
func (c *Controller) checkpoint(r *run, idx int, cursor string, done bool) {
	c.mu.Lock()
	if r.ctx.Err() != nil {
		c.mu.Unlock()
		return
	}
	r.cp.Marks[idx].Cursor, r.cp.Marks[idx].Done = cursor, done
	cp := r.cp
	cp.Marks = append([]PartitionMark(nil), r.cp.Marks...)
	c.mu.Unlock()
	if cp.View != "" { // a Sweep has no view lifecycle to resume
		_ = c.opts.Store.Save(cp)
	}
}

// State returns a view's lifecycle state.
func (c *Controller) State(view string) (State, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.views[view]
	if !ok {
		return "", false
	}
	return r.state, true
}

// Progress reports every tracked view's backfill progress.
func (c *Controller) Progress() map[string]Progress {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]Progress, len(c.views))
	for name, r := range c.views {
		p := Progress{State: r.state, Scanned: r.scanned.Load(), Resumed: r.resumed}
		if r.state == StateBackfilling {
			p.Partitions = len(r.cp.Marks)
			for _, m := range r.cp.Marks {
				if m.Done {
					p.PartitionsDone++
				}
			}
		}
		out[name] = p
	}
	return out
}

// Wait blocks until the view is Live, its backfill fails, or the
// context expires. It waits on channels: only user goroutines call it.
func (c *Controller) Wait(ctx context.Context, view string) error {
	c.mu.Lock()
	r, ok := c.views[view]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("backfill: unknown view %q", view)
	}
	select {
	case <-r.live:
		return nil
	case <-r.done:
		select {
		case <-r.live:
			return nil
		default:
		}
		c.mu.Lock()
		err := r.err
		c.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("backfill: view %q backfill stopped", view)
		}
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Drop cancels a view's backfill (if running), parks until it has
// stopped, and forgets its checkpoint and tracking state.
func (c *Controller) Drop(view string) {
	c.mu.Lock()
	r, ok := c.views[view]
	delete(c.views, view)
	c.mu.Unlock()
	if ok {
		c.halt(r, context.Canceled)
		c.awaitEnd(r)
	}
	_ = c.opts.Store.Clear(view)
}

// Close cancels every running backfill and parks until they have
// stopped. Checkpoints are left in place so the next Open resumes.
func (c *Controller) Close() {
	c.mu.Lock()
	c.closed = true
	runs := make([]*run, 0, len(c.views))
	for _, r := range c.views {
		runs = append(runs, r)
	}
	c.mu.Unlock()
	// In view order: on one thread of control the wakes below run the
	// woken work at once, so their order is part of the schedule.
	sort.Slice(runs, func(i, j int) bool { return runs[i].view < runs[j].view })
	for _, r := range runs {
		c.halt(r, context.Canceled)
	}
	for _, r := range runs {
		c.awaitEnd(r)
	}
}

// --- Checkpoint stores ------------------------------------------------------

// physStore persists checkpoints as one atomic JSON file per view
// under a backend namespace ("backfill/<hex(view)>.json" — hex keeps
// arbitrary view names path-safe, matching the WAL's table-dir
// convention).
type physStore struct{ b physical.Backend }

// NewPhysicalStore returns a Store over a physical backend.
func NewPhysicalStore(b physical.Backend) Store {
	return &physStore{b: physical.Sub(b, "backfill")}
}

func ckptName(view string) string { return hex.EncodeToString([]byte(view)) + ".json" }

func (s *physStore) Save(cp Checkpoint) error {
	data, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		return err
	}
	return s.b.WriteFileAtomic(ckptName(cp.View), data)
}

func (s *physStore) Load(view string) (Checkpoint, bool, error) {
	data, err := s.b.ReadFile(ckptName(view))
	if physical.IsNotExist(err) {
		return Checkpoint{}, false, nil
	}
	if err != nil {
		return Checkpoint{}, false, err
	}
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		// A corrupt checkpoint is not fatal — rescanning is always
		// correct.
		return Checkpoint{}, false, nil
	}
	return cp, true, nil
}

func (s *physStore) Clear(view string) error {
	err := s.b.Remove(ckptName(view))
	if err != nil && !physical.IsNotExist(err) {
		return err
	}
	return nil
}

// memStore keeps checkpoints in process memory — resume works across
// Start calls within one Controller lifetime but not across restarts.
type memStore struct {
	mu  sync.Mutex
	cps map[string]Checkpoint
}

// NewMemStore returns an in-memory Store.
func NewMemStore() Store { return &memStore{cps: map[string]Checkpoint{}} }

func (s *memStore) Save(cp Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp.Marks = append([]PartitionMark(nil), cp.Marks...)
	s.cps[cp.View] = cp
	return nil
}

func (s *memStore) Load(view string) (Checkpoint, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp, ok := s.cps[view]
	if !ok {
		return Checkpoint{}, false, nil
	}
	cp.Marks = append([]PartitionMark(nil), cp.Marks...)
	return cp, true, nil
}

func (s *memStore) Clear(view string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.cps, view)
	return nil
}

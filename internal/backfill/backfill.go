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
package backfill

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vstore/internal/clock"
	"vstore/internal/physical"
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
// resumed scans and overlapping partitions replay keys.
type Filler func(ctx context.Context, base, row string) error

// Options tunes a Controller.
type Options struct {
	// Store persists checkpoints; nil keeps them in memory (resume
	// within the process only).
	Store Store
	// Clock drives throttling; nil uses the wall clock.
	Clock clock.Clock
	// BatchSize is rows per scan page (and checkpoint cadence).
	// Default 256.
	BatchSize int
	// Throttle, when positive, sleeps between pages so a large backfill
	// yields to foreground traffic.
	Throttle time.Duration
	// Parallel bounds concurrent fills across all of a view's
	// partitions (a key-at-a-time fill pays quorum round trips, so some
	// overlap is essential on a latent network). Default 32.
	Parallel int
	// OnLive, when non-nil, runs after a view transitions to Live
	// (outside controller locks; used to persist the state change).
	OnLive func(view string)
}

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
	opts Options
	clk  clock.Clock

	mu     sync.Mutex
	views  map[string]*run
	closed bool
}

type run struct {
	view    string
	state   State
	cp      Checkpoint
	scanned atomic.Int64
	resumed bool
	err     error
	cancel  context.CancelFunc
	done    chan struct{}   // run goroutine exited
	live    chan struct{}   // state reached Live
	sem     chan struct{}   // bounds concurrent fills across partitions
	seenMu  sync.Mutex      // guards seen
	seen    map[string]bool // keys claimed by some partition this run
}

// claim records that this run is filling (base, row); it returns false
// when another partition already claimed the key — replicated keys
// surface in up to N partitions but only need one fill.
func (r *run) claim(base, row string) bool {
	k := base + "\x00" + row
	r.seenMu.Lock()
	defer r.seenMu.Unlock()
	if r.seen[k] {
		return false
	}
	r.seen[k] = true
	return true
}

// New returns a Controller.
func New(opts Options) *Controller {
	if opts.BatchSize <= 0 {
		opts.BatchSize = 256
	}
	if opts.Parallel <= 0 {
		opts.Parallel = 32
	}
	if opts.Store == nil {
		opts.Store = NewMemStore()
	}
	return &Controller{opts: opts, clk: clock.Or(opts.Clock), views: map[string]*run{}}
}

// Track registers a view that is already Live (defined from birth, or
// recovered in Live state) so State and Progress report it.
func (c *Controller) Track(view string) {
	closedCh := make(chan struct{})
	close(closedCh)
	c.mu.Lock()
	if _, ok := c.views[view]; !ok {
		c.views[view] = &run{view: view, state: StateLive, cancel: func() {}, done: closedCh, live: closedCh}
	}
	c.mu.Unlock()
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
	ctx, cancel := context.WithCancel(context.Background())
	r := &run{
		view: view, state: StateBackfilling, cp: cp, resumed: resumed,
		cancel: cancel, done: make(chan struct{}), live: make(chan struct{}),
		sem: make(chan struct{}, c.opts.Parallel), seen: map[string]bool{},
	}
	c.views[view] = r
	c.mu.Unlock()
	go c.runBackfill(ctx, r, parts, fill)
	return nil
}

func partKey(base string, node int) string { return fmt.Sprintf("%s\x00%d", base, node) }

// Sweep fills every row of the partitions once, synchronously, with the
// controller's page size and fill parallelism but no lifecycle and no
// checkpoints: re-deriving a view that already exists (DB.RebuildView)
// changes neither its state nor what a crash must resume.
func (c *Controller) Sweep(ctx context.Context, parts []Partition, fill Filler) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &run{
		cp:     Checkpoint{Marks: make([]PartitionMark, len(parts))},
		cancel: cancel, sem: make(chan struct{}, c.opts.Parallel), seen: map[string]bool{},
	}
	c.scanAll(ctx, r, parts, fill)
	return r.err
}

func (c *Controller) runBackfill(ctx context.Context, r *run, parts []Partition, fill Filler) {
	defer close(r.done)
	c.scanAll(ctx, r, parts, fill)
	c.mu.Lock()
	failed := r.err != nil
	if !failed {
		r.state = StateLive
	}
	c.mu.Unlock()
	if failed {
		return
	}
	// The checkpoint has served its purpose; clearing it is best-effort
	// (a stale Done-everywhere checkpoint resumes to an instant no-op).
	_ = c.opts.Store.Clear(r.view)
	close(r.live)
	if c.opts.OnLive != nil {
		c.opts.OnLive(r.view)
	}
}

// scanAll scans every unfinished partition to exhaustion, recording the
// first failure in r.err. Partitions scan concurrently — each node
// pages its own rows — while the shared fill semaphore bounds total
// in-flight fills.
func (c *Controller) scanAll(ctx context.Context, r *run, parts []Partition, fill Filler) {
	var wg sync.WaitGroup
	for i := range parts {
		c.mu.Lock()
		skip := r.cp.Marks[i].Done
		c.mu.Unlock()
		if skip {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := c.scanPartition(ctx, r, i, parts[i], fill); err != nil {
				c.mu.Lock()
				if r.err == nil {
					r.err = err
				}
				c.mu.Unlock()
				r.cancel() // first failure stops the sibling scans
			}
		}(i)
	}
	wg.Wait()
}

// scanPartition pages one partition to exhaustion: its high-water mark
// passing "no more rows" strictly passes the snapshot point, because
// the scan order is stable and rows are never reordered below the
// cursor.
func (c *Controller) scanPartition(ctx context.Context, r *run, idx int, p Partition, fill Filler) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		c.mu.Lock()
		cursor := r.cp.Marks[idx].Cursor
		c.mu.Unlock()
		rows := p.Scan(cursor, c.opts.BatchSize)
		if len(rows) == 0 {
			c.mu.Lock()
			r.cp.Marks[idx].Done = true
			cp := snapshotLocked(r)
			c.mu.Unlock()
			c.saveCheckpoint(cp)
			return nil
		}
		// Fill the page with bounded parallelism shared across
		// partitions. Replicated keys surface in up to N partitions;
		// the claim set makes one partition fill each key and the rest
		// skip it (claims are in-memory only — after a crash-resume a
		// key may be refilled, which is idempotent). The cursor only
		// advances after the whole page settles, so a checkpoint never
		// covers an unfilled row.
		var (
			wg       sync.WaitGroup
			errMu    sync.Mutex
			firstErr error
		)
		for _, row := range rows {
			if err := ctx.Err(); err != nil {
				wg.Wait()
				return err
			}
			if !r.claim(p.Base, row) {
				continue
			}
			select {
			case r.sem <- struct{}{}:
			case <-ctx.Done():
				wg.Wait()
				return ctx.Err()
			}
			wg.Add(1)
			go func(row string) {
				defer wg.Done()
				defer func() { <-r.sem }()
				if err := fill(ctx, p.Base, row); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("backfill: %s row %q: %w", p.Base, row, err)
					}
					errMu.Unlock()
					return
				}
				r.scanned.Add(1)
			}(row)
		}
		wg.Wait()
		if firstErr != nil {
			return firstErr
		}
		c.mu.Lock()
		r.cp.Marks[idx].Cursor = rows[len(rows)-1]
		cp := snapshotLocked(r)
		c.mu.Unlock()
		c.saveCheckpoint(cp)
		if d := c.opts.Throttle; d > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-c.clk.After(d):
			}
		}
	}
}

// snapshotLocked deep-copies the checkpoint so Save can marshal it
// outside the lock while the scan keeps advancing.
func snapshotLocked(r *run) Checkpoint {
	cp := r.cp
	cp.Marks = append([]PartitionMark(nil), r.cp.Marks...)
	return cp
}

// saveCheckpoint persists progress. Failures are swallowed: a lost
// checkpoint only widens the rescan window after a crash, and backfill
// writes are idempotent — aborting the backfill over it would turn a
// benign storage hiccup into an unavailable view.
func (c *Controller) saveCheckpoint(cp Checkpoint) {
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
// context expires.
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

// Drop cancels a view's backfill (if running), waits for it to stop,
// and forgets its checkpoint and tracking state.
func (c *Controller) Drop(view string) {
	c.mu.Lock()
	r, ok := c.views[view]
	delete(c.views, view)
	c.mu.Unlock()
	if ok {
		r.cancel()
		<-r.done
	}
	_ = c.opts.Store.Clear(view)
}

// Close cancels every running backfill and waits for the goroutines.
// Checkpoints are left in place so the next Open resumes.
func (c *Controller) Close() {
	c.mu.Lock()
	c.closed = true
	runs := make([]*run, 0, len(c.views))
	for _, r := range c.views {
		runs = append(runs, r)
	}
	c.mu.Unlock()
	for _, r := range runs {
		r.cancel()
	}
	for _, r := range runs {
		<-r.done
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

// Package coord implements the coordinator role of Section II of the
// paper: any node a client connects to coordinates that client's
// requests. A Put is forwarded to all N replicas of the record and
// acknowledged after W replies; a Get is forwarded to all N replicas,
// merged after R replies with the largest-timestamp cell winning.
//
// Beyond the paper's minimal model the coordinator also implements the
// standard eventual-consistency machinery the paper alludes to with
// "mechanisms (not described here) that ensure that all updates to a
// cell eventually reach every replica": read repair of stale replicas
// and hinted handoff for replicas that were down during a write.
//
// The coordinator also provides the combined Get-then-Put of
// Algorithm 1: a Put that atomically pre-reads the view-key column at
// every replica and keeps collecting the distinct versions seen after
// the client has been acknowledged, feeding update propagation.
//
// Every operation is an exchange run by the one quorum round of
// round.go.
package coord

import (
	"context"
	"errors"
	"slices"
	"strconv"
	"sync"
	"time"

	"vstore/internal/clock"
	"vstore/internal/model"
	"vstore/internal/ring"
	"vstore/internal/trace"
	"vstore/internal/transport"
)

// Options configure a coordinator.
type Options struct {
	// N is the replication factor.
	N int
	// RequestTimeout bounds each fan-out round. Default 2s.
	RequestTimeout time.Duration
	// HintReplayInterval is how often stored hints are retried.
	// Default 200ms. Zero keeps the default; negative disables replay.
	HintReplayInterval time.Duration
	// DisableReadRepair turns off background repair of stale replicas.
	DisableReadRepair bool
	// Clock supplies timeouts and tickers; nil uses the wall clock.
	Clock clock.Clock
}

func (o Options) withDefaults() Options {
	if o.N <= 0 {
		o.N = 3
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 2 * time.Second
	}
	if o.HintReplayInterval == 0 {
		o.HintReplayInterval = 200 * time.Millisecond
	}
	return o
}

// ErrQuorumFailed is returned when fewer than the requested number of
// replicas acknowledged within the timeout.
var ErrQuorumFailed = errors.New("coord: quorum not reached")

// Coordinator drives quorum operations on behalf of one node.
type Coordinator struct {
	self  transport.NodeID
	ring  *ring.Ring
	trans transport.Transport
	// sync is non-nil when the fabric completes calls on the caller's
	// goroutine (transport.SyncCaller); only the round reads it.
	sync transport.SyncCaller
	// event is non-nil when the fabric is one thread of control that
	// parks and resumes its callers (transport.EventCaller); only the
	// round, Go and Park read it.
	event transport.EventCaller
	opts  Options
	clk   clock.Clock

	hintMu sync.Mutex
	hints  map[transport.NodeID][]transport.ApplyEntriesReq

	stop     chan struct{}
	stopOnce sync.Once
	trackMu  sync.Mutex
	stopped  bool
	// idle is the free list of overlapped rounds' helpers (round.go),
	// guarded by trackMu; Close ends them.
	idle []*helper
	wg   sync.WaitGroup

	statMu sync.Mutex
	stats  Stats
}

// Stats counts coordinator activity for tests and observability.
type Stats struct {
	Puts          int64
	Gets          int64
	ReadRepairs   int64
	HintsStored   int64
	HintsReplayed int64
	QuorumFails   int64
	// DigestReads counts Gets served by the digest fast path (full
	// row from one replica, matching digests from the rest).
	DigestReads int64
	// DigestMismatches counts digest replies that disagreed with the
	// full replica (each triggers a full-read fallback or a repair).
	DigestMismatches int64
	// MultiGets counts batched row-read rounds; MultiGetRows the rows
	// they covered (the difference is round trips saved).
	MultiGets    int64
	MultiGetRows int64
}

// Add folds o's counts into s.
func (s *Stats) Add(o Stats) {
	s.Puts += o.Puts
	s.Gets += o.Gets
	s.ReadRepairs += o.ReadRepairs
	s.HintsStored += o.HintsStored
	s.HintsReplayed += o.HintsReplayed
	s.QuorumFails += o.QuorumFails
	s.DigestReads += o.DigestReads
	s.DigestMismatches += o.DigestMismatches
	s.MultiGets += o.MultiGets
	s.MultiGetRows += o.MultiGetRows
}

// New returns a coordinator for node self.
func New(self transport.NodeID, rg *ring.Ring, tr transport.Transport, opts Options) *Coordinator {
	c := &Coordinator{
		self:  self,
		ring:  rg,
		trans: tr,
		opts:  opts.withDefaults(),
		clk:   clock.Or(opts.Clock),
		hints: map[transport.NodeID][]transport.ApplyEntriesReq{},
		stop:  make(chan struct{}),
	}
	c.sync, _ = tr.(transport.SyncCaller)
	c.event, _ = tr.(transport.EventCaller)
	if c.opts.HintReplayInterval > 0 {
		c.wg.Add(1)
		go c.hintLoop()
	}
	return c
}

// Close stops background activity and ends the round helpers: idle
// ones at once, busy ones when their round parks them. Write rounds
// that start afterwards run their calls on the caller.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.trackMu.Lock()
	c.stopped = true
	for _, h := range c.idle {
		close(h.calls)
	}
	c.idle = nil
	c.trackMu.Unlock()
	c.wg.Wait()
}

// Go starts f as background work of this coordinator: on a goroutine
// the Close method waits for — on an event fabric, as a process of the
// fabric's, which needs no waiting for. It refuses (returning false)
// once shutdown has begun, so late background work is skipped rather
// than racing the final Wait. Together with Park it is everything the
// layers above need to wait without knowing their fabric.
func (c *Coordinator) Go(f func()) bool {
	c.trackMu.Lock()
	if c.stopped {
		c.trackMu.Unlock()
		return false
	}
	if c.event != nil {
		c.trackMu.Unlock()
		c.event.Spawn(f)
		return true
	}
	c.wg.Add(1)
	c.trackMu.Unlock()
	go func() {
		defer c.wg.Done()
		f()
	}()
	return true
}

// Park suspends the caller until the wake function handed to arm is
// called. arm runs at once, on the caller; wake must be called exactly
// once, from anywhere but inside arm: another goroutine — or, on an
// event fabric, a later event, the caller being a process the fabric
// resumes. Whoever can be woken from several sources guards its wake
// itself.
func (c *Coordinator) Park(arm func(wake func())) {
	if c.event != nil {
		c.event.Park(arm)
		return
	}
	s := spots.Get().(*spot)
	arm(s.wake)
	<-s.woken
	spots.Put(s)
}

// spot is where a goroutine parks: a channel and the wake that sends on
// it, made once and reused — a back-off-governed retry loop parks tens
// of times per propagation. Wake's exactly-once contract is what leaves
// a returned spot's channel empty.
type spot struct {
	woken chan struct{}
	wake  func()
}

var spots = sync.Pool{New: func() any {
	s := &spot{woken: make(chan struct{}, 1)}
	s.wake = func() { s.woken <- struct{}{} }
	return s
}}

// Self returns the node this coordinator runs on.
func (c *Coordinator) Self() transport.NodeID { return c.self }

// N returns the replication factor.
func (c *Coordinator) N() int { return c.opts.N }

// Stats returns a snapshot of the counters.
func (c *Coordinator) Stats() Stats {
	c.statMu.Lock()
	defer c.statMu.Unlock()
	return c.stats
}

func (c *Coordinator) bump(f func(*Stats)) {
	c.statMu.Lock()
	f(&c.stats)
	c.statMu.Unlock()
}

// ReplicasFor exposes replica placement (used by anti-entropy).
func (c *Coordinator) ReplicasFor(table, row string) []transport.NodeID {
	return c.ring.ReplicasForRow(table, row, c.opts.N)
}

// span opens the trace span of one coordinator operation.
func (c *Coordinator) span(ctx context.Context, name, table, row string, q quorum) *trace.Span {
	sp := trace.FromContext(ctx).Child(name)
	sp.SetAttr("table", table)
	sp.SetAttr("row", row)
	sp.SetAttr("replicas", strconv.Itoa(len(q.replicas)))
	return sp
}

// VersionCollector accumulates the distinct pre-image versions of the
// view-key column returned by replicas during a Get-then-Put. The
// client-facing Put returns as soon as W replicas acknowledged; the
// collector keeps filling in as stragglers reply, and update
// propagation consults it for guesses (Algorithm 1, lines 5-7).
type VersionCollector struct {
	mu        sync.Mutex
	set       model.VersionSet
	remaining int
	notify    []func() // run once at the next change, then forgotten
}

func (vc *VersionCollector) add(cell model.Cell, has bool) {
	vc.mu.Lock()
	if vc.remaining <= 0 {
		vc.mu.Unlock()
		return
	}
	changed := false
	if has {
		changed = vc.set.Add(cell)
	}
	vc.remaining--
	var notify []func()
	if changed || vc.remaining == 0 {
		notify, vc.notify = vc.notify, nil
	}
	vc.mu.Unlock()
	for _, f := range notify {
		f()
	}
}

// Versions returns the distinct versions collected so far, newest
// first.
func (vc *VersionCollector) Versions() []model.Cell {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.set.Cells()
}

// Notify arranges for f to run once, the next time the version set
// grows or collection finishes — on whatever delivers that reply, so f
// must be brief and callers re-fetch after it fires. It reports false,
// and forgets f, when collection is already complete: with a
// synchronous fabric it can finish before the caller first asks.
func (vc *VersionCollector) Notify(f func()) bool {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if vc.remaining <= 0 {
		return false
	}
	vc.notify = append(vc.notify, f)
	return true
}

// Complete reports whether every replica has replied or failed.
func (vc *VersionCollector) Complete() bool {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.remaining <= 0
}

// Collectors are the version collectors of one pre-read, aligned with
// its columns. The zero value, a put's that asks no pre-read, holds
// none and costs nothing.
type Collectors struct {
	cols []string
	vcs  []VersionCollector
}

func newCollectors(cols []string, replicas int) Collectors {
	if len(cols) == 0 {
		return Collectors{}
	}
	vcs := make([]VersionCollector, len(cols))
	for i := range vcs {
		vcs[i].remaining = replicas
	}
	return Collectors{cols, vcs}
}

// Of returns the collector of a pre-read column, nil for a column the
// pre-read did not ask for.
func (cs Collectors) Of(col string) *VersionCollector {
	for i, c := range cs.cols {
		if c == col {
			return &cs.vcs[i]
		}
	}
	return nil
}

// addRow feeds one replica's pre-read cells, aligned with the columns,
// into the collectors; a column the reply lacks — every column, for a
// nil reply — counts the replica as failed for it.
func (cs Collectors) addRow(cells []model.Cell) {
	for i := range cs.vcs {
		if i < len(cells) {
			cs.vcs[i].add(cells[i], true)
		} else {
			cs.vcs[i].add(model.NullCell, false)
		}
	}
}

// Put writes column updates to a row with write quorum w.
func (c *Coordinator) Put(ctx context.Context, table, row string, updates []model.ColumnUpdate, w int) error {
	_, err := c.PutWithPreRead(ctx, table, row, updates, w, nil)
	return err
}

// PutWithPreRead performs the combined Get-then-Put of Algorithm 1:
// every replica atomically reads versionCols before applying the
// updates. The returned collectors carry the distinct pre-image
// versions per column; they keep filling after this call returns.
func (c *Coordinator) PutWithPreRead(ctx context.Context, table, row string, updates []model.ColumnUpdate, w int, versionCols []string) (Collectors, error) {
	c.bump(func(s *Stats) { s.Puts++ })
	q, err := c.quorumFor(table, row, w)
	if err != nil {
		return Collectors{}, err
	}
	sp := c.span(ctx, "coord.put", table, row, q)
	defer sp.Finish()
	x := &collect{c: c, cs: newCollectors(versionCols, len(q.replicas)), plain: plain{
		transport.PutReq{Table: table, Row: row, Updates: updates, ReturnVersionsOf: versionCols, Span: sp}}}
	if err := c.round(ctx, writeKind, q, true, x); err != nil {
		c.bump(func(s *Stats) { s.QuorumFails++ })
		return x.cs, err
	}
	return x.cs, nil
}

// GetVersions is the pre-read of Algorithm 1 line 2 on its own, for
// propagations that have no Put to ride on (intent replay, backfill, a
// view created while the write was in flight): a Get that returns all
// distinct versions of the given columns found among the replicas, not
// just the latest. It returns after r replies; collection continues in
// the background.
func (c *Coordinator) GetVersions(ctx context.Context, table, row string, cols []string, r int) (Collectors, error) {
	c.bump(func(s *Stats) { s.Gets++ })
	q, err := c.quorumFor(table, row, r)
	if err != nil {
		return Collectors{}, err
	}
	sp := c.span(ctx, "coord.preread", table, row, q)
	defer sp.Finish()
	x := &collect{c: c, cs: newCollectors(cols, len(q.replicas)), plain: plain{
		transport.GetReq{Table: table, Row: row, Columns: cols, Span: sp}}}
	return x.cs, c.round(ctx, preReadKind, q, true, x)
}

// collect is the exchange of the rounds that gather pre-images, a Put
// or a GetVersions: each replica's row into the collectors and, for a
// Put, a hint for every replica the write did not reach.
type collect struct {
	plain
	c  *Coordinator
	cs Collectors
}

func (x *collect) fold(res transport.Result) (int, error) {
	var pre []model.Cell
	switch resp := res.Resp.(type) {
	case transport.PutResp:
		pre = resp.Old
	case transport.GetResp:
		pre = resp.Cells
	default:
		res.Err = failure(res)
	}
	if res.Err != nil {
		x.cs.addRow(nil)
		if put, ok := x.req.(transport.PutReq); ok {
			x.c.storeHint(res.From, put.Table, put.Row, put.Updates)
		}
		return 0, res.Err
	}
	x.cs.addRow(pre)
	return 1, nil
}

// --- Hinted handoff --------------------------------------------------------

func (c *Coordinator) storeHint(target transport.NodeID, table, row string, updates []model.ColumnUpdate) {
	entries := make([]model.Entry, 0, len(updates))
	for _, u := range updates {
		entries = append(entries, model.Entry{Key: model.EncodeKey(row, u.Column), Cell: u.Cell})
	}
	c.hintMu.Lock()
	c.hints[target] = append(c.hints[target], transport.ApplyEntriesReq{Table: table, Entries: entries})
	c.hintMu.Unlock()
	c.bump(func(s *Stats) { s.HintsStored++ })
}

// PendingHints reports how many hints are queued (for tests).
func (c *Coordinator) PendingHints() int {
	c.hintMu.Lock()
	defer c.hintMu.Unlock()
	n := 0
	for _, hs := range c.hints {
		n += len(hs)
	}
	return n
}

func (c *Coordinator) hintLoop() {
	defer c.wg.Done()
	ticker := c.clk.Ticker(c.opts.HintReplayInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C():
			c.ReplayHints()
		}
	}
}

// ReplayHints makes one delivery attempt for every queued hint, targets
// in ascending node order and each target's hints in the order they
// were stored. Successfully delivered hints are dropped; failures stay
// queued.
func (c *Coordinator) ReplayHints() {
	c.hintMu.Lock()
	pending := c.hints
	c.hints = map[transport.NodeID][]transport.ApplyEntriesReq{}
	c.hintMu.Unlock()

	targets := make([]transport.NodeID, 0, len(pending))
	for target := range pending {
		targets = append(targets, target)
	}
	slices.Sort(targets)
	for _, target := range targets {
		for _, h := range pending[target] {
			if err := c.push(target, h); err != nil {
				c.hintMu.Lock()
				c.hints[target] = append(c.hints[target], h)
				c.hintMu.Unlock()
				continue
			}
			c.bump(func(s *Stats) { s.HintsReplayed++ })
		}
	}
}

package vstore

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"vstore/internal/backfill"
	"vstore/internal/coord"
	"vstore/internal/core"
	"vstore/internal/metrics"
	"vstore/internal/model"
	"vstore/internal/trace"
)

// Option adjusts a single client call. Options compose left to right:
//
//	c.Get(ctx, "data", "k", vstore.WithColumns("payload"), vstore.WithReadQuorum(1))
type Option func(*callOpts)

// callOpts carries the per-call settings after options are applied.
type callOpts struct {
	w, r     int
	columns  []string
	traced   bool
	maxStale time.Duration
}

// WithReadQuorum overrides the read quorum for one call (values <= 0
// keep the client's default).
func WithReadQuorum(r int) Option {
	return func(o *callOpts) {
		if r > 0 {
			o.r = r
		}
	}
}

// WithWriteQuorum overrides the write quorum for one call (values <= 0
// keep the client's default).
func WithWriteQuorum(w int) Option {
	return func(o *callOpts) {
		if w > 0 {
			o.w = w
		}
	}
}

// WithColumns selects the columns a read returns (Get requires it;
// GetView and QueryIndex default to all materialized / no extra
// columns).
func WithColumns(columns ...string) Option {
	return func(o *callOpts) { o.columns = append(o.columns, columns...) }
}

// WithTracing records a full span tree for this call — coordinator
// fan-out, replica handlers, chain walks, and (for writes to viewed
// tables) linked propagation spans — retrievable via DB.Traces().
func WithTracing() Option {
	return func(o *callOpts) { o.traced = true }
}

// WithMaxStaleness bounds how stale a GetView result may be relative
// to the base table, consulting the live staleness gauges at the
// coordinator:
//
//   - view Backfilling → reject immediately with ErrViewBackfilling
//     (no bound can be promised while old base rows are still being
//     scanned in);
//   - oldest pending propagation for the view ≤ d → serve;
//   - otherwise wait up to d for in-flight propagations to drain
//     below the bound (timed as session_wait), then serve or reject
//     with ErrTooStale.
//
// The gauge is an upper bound on staleness, so serving is always
// within the promise; rejections may be conservative. Values <= 0 are
// ignored. Only meaningful on GetView.
func WithMaxStaleness(d time.Duration) Option {
	return func(o *callOpts) {
		if d > 0 {
			o.maxStale = d
		}
	}
}

// ErrTooStale is returned (wrapped) by GetView with WithMaxStaleness
// when the view's staleness bound cannot be met within the budget.
var ErrTooStale = errors.New("view staleness exceeds the requested bound")

// ErrViewBackfilling is returned (wrapped) by GetView with
// WithMaxStaleness while the view's online backfill is still running.
// It wraps ErrTooStale, so errors.Is(err, ErrTooStale) also matches.
var ErrViewBackfilling = fmt.Errorf("view is backfilling: %w", ErrTooStale)

// Cell is one column value as seen by applications.
type Cell struct {
	Value     []byte
	Timestamp int64
}

// Row maps column names to cells.
type Row map[string]Cell

// Values is the convenience input type for writes: column → value.
// Timestamps are assigned automatically from the client's monotonic
// clock.
type Values map[string]string

// ViewRow is one application-visible row of a materialized view.
type ViewRow struct {
	// ViewKey is the secondary key the row was found under.
	ViewKey string
	// Table names the base table the row comes from. Empty for
	// single-base views; set per side for equi-join views.
	Table string
	// BaseKey is the primary key of the corresponding base-table row.
	BaseKey string
	// Columns holds the requested view-materialized columns.
	Columns Row
}

// IndexRow is one result of a native secondary-index query.
type IndexRow struct {
	// Key is the matched base row's primary key.
	Key string
	// Columns holds the requested read columns.
	Columns Row
}

// Update is an explicitly timestamped column write, for callers that
// manage their own timestamps.
type Update struct {
	Column string
	Value  []byte
	// Timestamp orders the write against all others on the same cell;
	// zero means "assign from the client clock".
	Timestamp int64
	// Delete writes a tombstone instead of a value.
	Delete bool
}

// Client issues requests through one coordinator node, like an
// application connection in the paper's system model. Clients are safe
// for concurrent use; each carries default quorums that can be
// overridden per call with WithReadQuorum / WithWriteQuorum.
type Client struct {
	db   *DB
	node int
	w, r int
	sess *core.Session
}

// Client returns a client bound to the coordinator on the given node
// (modulo the cluster size).
func (db *DB) Client(nodeIndex int) *Client {
	n := nodeIndex % db.cluster.Size()
	if n < 0 {
		n += db.cluster.Size()
	}
	return &Client{db: db, node: n, w: db.cfg.WriteQuorum, r: db.cfg.ReadQuorum}
}

// callOptions resolves the client defaults plus per-call options.
func (c *Client) callOptions(opts []Option) callOpts {
	co := callOpts{w: c.w, r: c.r}
	for _, o := range opts {
		o(&co)
	}
	return co
}

// startTrace begins a retained root span for a traced call and hangs
// it on the context so every layer below attaches children. Returns
// the (possibly unchanged) context and a nil-safe span to Finish.
func (c *Client) startTrace(ctx context.Context, op string, traced bool) (context.Context, *trace.Span) {
	if !traced {
		return ctx, nil
	}
	sp := c.db.tracer.StartRoot(op)
	return trace.NewContext(ctx, sp), sp
}

// Node returns the coordinator node index this client is bound to.
func (c *Client) Node() int { return c.node }

// Session returns a copy of the client whose operations run inside a
// new session with the paper's Definition 4 guarantee: view reads wait
// for the session's own earlier updates to reach the view. End the
// session with EndSession.
func (c *Client) Session() *Client {
	cc := *c
	cc.sess = c.manager().Session()
	return &cc
}

// EndSession closes the client's session, if any.
func (c *Client) EndSession() {
	if c.sess != nil {
		c.sess.End()
	}
}

func (c *Client) manager() *core.Manager { return c.db.managers[c.node] }

// Put writes column values to a row, timestamped from the client
// clock. If the table has materialized views, relevant updates are
// propagated to them asynchronously (Algorithm 1).
func (c *Client) Put(ctx context.Context, table, key string, values Values, opts ...Option) error {
	updates := make([]Update, 0, len(values))
	for col, v := range values {
		updates = append(updates, Update{Column: col, Value: []byte(v)})
	}
	// Deterministic column order for reproducible runs.
	slices.SortFunc(updates, func(a, b Update) int { return strings.Compare(a.Column, b.Column) })
	return c.PutUpdates(ctx, table, key, updates, opts...)
}

// PutUpdates writes explicitly specified column updates.
func (c *Client) PutUpdates(ctx context.Context, table, key string, updates []Update, opts ...Option) error {
	if len(updates) == 0 {
		return fmt.Errorf("vstore: empty update")
	}
	if !c.db.cluster.HasTable(table) {
		return fmt.Errorf("vstore: unknown table %q", table)
	}
	co := c.callOptions(opts)
	ctx, sp := c.startTrace(ctx, "client.put", co.traced)
	sp.SetAttr("table", table)
	sp.SetAttr("key", key)
	defer sp.Finish()
	start := c.db.now()
	defer func() { c.db.lat.Observe(metrics.OpWrite, c.db.now().Sub(start)) }()
	cus := make([]model.ColumnUpdate, 0, len(updates))
	for _, u := range updates {
		ts := u.Timestamp
		if ts == 0 {
			ts = c.db.clock.Next()
		}
		cell := model.Cell{Value: u.Value, TS: ts, Tombstone: u.Delete}
		if u.Delete {
			cell.Value = nil
		}
		cus = append(cus, model.ColumnUpdate{Column: u.Column, Cell: cell})
	}
	return c.manager().Put(ctx, table, key, cus, co.w, c.sess)
}

// Delete tombstones columns of a row. Deleting a view-key column
// removes the row from that view.
func (c *Client) Delete(ctx context.Context, table, key string, columns ...string) error {
	updates := make([]Update, 0, len(columns))
	for _, col := range columns {
		updates = append(updates, Update{Column: col, Delete: true})
	}
	return c.PutUpdates(ctx, table, key, updates)
}

// Get reads columns of a row by primary key. The columns come from
// WithColumns (none = error; use GetRow for all columns). Deleted and
// never-written columns are absent from the result.
func (c *Client) Get(ctx context.Context, table, key string, opts ...Option) (Row, error) {
	co := c.callOptions(opts)
	if len(co.columns) == 0 {
		return nil, fmt.Errorf("vstore: Get needs at least one column via WithColumns (use GetRow for all)")
	}
	return c.get(ctx, table, key, co.columns, co)
}

// GetRow reads every column of a row.
func (c *Client) GetRow(ctx context.Context, table, key string, opts ...Option) (Row, error) {
	return c.get(ctx, table, key, nil, c.callOptions(opts))
}

// get reads the named columns of a row, or all of them if there are
// none.
func (c *Client) get(ctx context.Context, table, key string, columns []string, co callOpts) (Row, error) {
	if !c.db.cluster.HasTable(table) {
		return nil, fmt.Errorf("vstore: unknown table %q", table)
	}
	if c.db.registry.IsView(table) {
		return nil, fmt.Errorf("vstore: %q is a view; read it with GetView", table)
	}
	ctx, sp := c.startTrace(ctx, "client.get", co.traced)
	sp.SetAttr("table", table)
	sp.SetAttr("key", key)
	defer sp.Finish()
	out := Row{}
	reader := c.db.cluster.Coordinator(c.node)
	start := c.db.now()
	if len(columns) == 0 {
		es, err := reader.GetRow(ctx, table, key, co.r)
		c.db.lat.Observe(metrics.OpRead, c.db.now().Sub(start))
		if err != nil {
			return nil, err
		}
		for _, e := range es {
			c.addCell(out, string(e.Key), e.Cell)
		}
		return out, nil
	}
	cells, err := reader.Get(ctx, table, key, columns, co.r, false)
	c.db.lat.Observe(metrics.OpRead, c.db.now().Sub(start))
	if err != nil {
		return nil, err
	}
	for i, col := range columns {
		c.addCell(out, col, cells[i])
	}
	return out, nil
}

// addCell enters a cell read from the store into a public row: a live
// cell with its timestamp, which the client's clock observes; a deleted
// or never-written one stays out.
func (c *Client) addCell(row Row, col string, cell model.Cell) {
	if !cell.IsNull() {
		c.db.clock.Observe(cell.TS)
		row[col] = Cell{Value: cell.Value, Timestamp: cell.TS}
	}
}

// MultiGet reads several rows of one table in as few quorum round
// trips as possible: rows placed on the same replica set travel in a
// single batched request per replica. columns selects the columns to
// read (none = every column). The result is index-aligned with keys;
// a missing row yields an empty (never nil) Row.
func (c *Client) MultiGet(ctx context.Context, table string, keys []string, columns ...string) ([]Row, error) {
	if !c.db.cluster.HasTable(table) {
		return nil, fmt.Errorf("vstore: unknown table %q", table)
	}
	if c.db.registry.IsView(table) {
		return nil, fmt.Errorf("vstore: %q is a view; read it with GetView", table)
	}
	reads := make([]coord.RowRead, 0, len(keys))
	for _, key := range keys {
		reads = append(reads, coord.RowRead{Row: key, Columns: columns, AllColumns: len(columns) == 0})
	}
	rows, err := c.db.cluster.Coordinator(c.node).MultiGet(ctx, table, reads, c.r)
	if err != nil {
		return nil, err
	}
	out := make([]Row, len(rows))
	for i, got := range rows {
		out[i] = Row{}
		for j, col := range columns {
			c.addCell(out[i], col, got.Cells[j])
		}
		for _, e := range got.Entries {
			c.addCell(out[i], string(e.Key), e.Cell)
		}
	}
	return out, nil
}

// GetView reads a materialized view by view key (Algorithm 4),
// returning one row per matching live view row. WithColumns selects
// view-materialized columns (none = all). Under a session, the read
// first waits for the session's own pending propagations to this view
// (Definition 4); that wait is timed as session_wait, not view-read
// latency.
func (c *Client) GetView(ctx context.Context, view, viewKey string, opts ...Option) ([]ViewRow, error) {
	co := c.callOptions(opts)
	ctx, sp := c.startTrace(ctx, "client.getview", co.traced)
	sp.SetAttr("view", view)
	sp.SetAttr("view_key", viewKey)
	defer sp.Finish()
	if c.sess != nil {
		ws := c.db.now()
		err := c.sess.WaitView(ctx, view)
		c.db.lat.Observe(metrics.OpSessionWait, c.db.now().Sub(ws))
		if err != nil {
			return nil, err
		}
	}
	if co.maxStale > 0 {
		if err := c.waitStaleness(ctx, view, co.maxStale); err != nil {
			return nil, err
		}
	}
	var cols []string
	if len(co.columns) > 0 {
		cols = co.columns
	}
	start := c.db.now()
	rows, err := c.manager().GetView(ctx, view, viewKey, cols)
	c.db.lat.Observe(metrics.OpViewRead, c.db.now().Sub(start))
	if err != nil {
		return nil, err
	}
	out := make([]ViewRow, 0, len(rows))
	for _, r := range rows {
		vr := ViewRow{ViewKey: r.ViewKey, Table: r.Table, BaseKey: r.BaseKey, Columns: Row{}}
		for col, cell := range r.Cells {
			c.db.clock.Observe(cell.TS)
			vr.Columns[col] = Cell{Value: cell.Value, Timestamp: cell.TS}
		}
		out = append(out, vr)
	}
	return out, nil
}

// QueryIndex looks rows up through a native secondary index: the query
// is broadcast to every node's local index fragment and the answers
// are merged — the expensive-read/cheap-write alternative the paper
// compares materialized views against. WithColumns selects the read
// columns returned with each match.
func (c *Client) QueryIndex(ctx context.Context, table, column, value string, opts ...Option) ([]IndexRow, error) {
	if !c.db.cluster.HasTable(table) {
		return nil, fmt.Errorf("vstore: unknown table %q", table)
	}
	co := c.callOptions(opts)
	ctx, sp := c.startTrace(ctx, "client.queryindex", co.traced)
	sp.SetAttr("table", table)
	sp.SetAttr("column", column)
	defer sp.Finish()
	start := c.db.now()
	res, err := c.db.queriers[c.node].Query(ctx, table, column, []byte(value), co.columns)
	c.db.lat.Observe(metrics.OpIndexRead, c.db.now().Sub(start))
	if err != nil {
		return nil, err
	}
	out := make([]IndexRow, 0, len(res))
	for _, r := range res {
		ir := IndexRow{Key: r.Key, Columns: Row{}}
		for col, cell := range r.Cells {
			if cell.IsNull() {
				continue
			}
			ir.Columns[col] = Cell{Value: cell.Value, Timestamp: cell.TS}
		}
		out = append(out, ir)
	}
	return out, nil
}

// waitStaleness implements WithMaxStaleness's decision table against
// the per-view staleness gauge (the age of the view's oldest pending
// propagation — an upper bound on how stale any of its rows can be).
func (c *Client) waitStaleness(ctx context.Context, view string, bound time.Duration) error {
	db := c.db
	if st, ok := db.bf.State(view); ok && st == backfill.StateBackfilling {
		return fmt.Errorf("vstore: view %q: %w", view, ErrViewBackfilling)
	}
	if db.registry.OldestPendingAgeFor(view, db.now()) <= bound {
		return nil
	}
	// Bounded session-wait: give in-flight propagations up to the read's
	// own staleness budget to drain below the bound.
	ws := db.now()
	defer func() { db.lat.Observe(metrics.OpSessionWait, db.now().Sub(ws)) }()
	if c.manager().AwaitStaleness(ctx, view, bound) {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return fmt.Errorf("vstore: view %q: %w", view, ErrTooStale)
}

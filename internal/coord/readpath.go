package coord

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"vstore/internal/model"
	"vstore/internal/trace"
	"vstore/internal/transport"
)

// This file holds the read exchanges:
//
//   - the digest read (Cassandra style): one full row plus digests;
//   - the full read: every replica's row, merged with LWW, divergent
//     replicas repaired;
//   - MultiGet: several rows of one table resolved per replica set in
//     one request each, used by view-maintenance chain walks.

// Get reads the requested columns of a row with read quorum r. The
// returned cells are aligned with columns, each the winning cell of
// its column; a column written nowhere reads as model.NullCell. With
// allColumns set, columns is ignored and the cells are those of every
// column GetRow returns, in column-name order.
//
// When r ≥ 2 the coordinator first tries a digest read: the cells from
// one replica and 64-bit digests from the rest. Matching digests prove
// the replicas hold identical cells, so the full reply already is the
// quorum answer and no per-replica transfer or merge is needed. Any
// mismatch before the answer is out, an unreachable full replica or a
// short quorum falls back to the full round, which also repairs the
// divergence it finds.
func (c *Coordinator) Get(ctx context.Context, table, row string, columns []string, r int, allColumns bool) ([]model.Cell, error) {
	if allColumns {
		es, err := c.GetRow(ctx, table, row, r)
		if err != nil {
			return nil, err
		}
		out := make([]model.Cell, len(es))
		for i, e := range es {
			out[i] = e.Cell
		}
		return out, nil
	}
	get := transport.GetReq{Table: table, Row: row, Columns: columns}
	q, sp, d, err := c.tryDigest(ctx, get, r)
	if err != nil {
		return nil, err
	}
	defer sp.Finish()
	if d != nil {
		return d.fullRow, nil
	}
	get.Span = sp
	f := &fullRead{c: c, plain: plain{get}, table: table, row: row, columns: columns,
		merged: nullCells(len(columns)), responders: make(map[transport.NodeID][]model.Cell, len(q.replicas))}
	if err := c.round(ctx, readKind, q, !c.opts.DisableReadRepair, f); err != nil {
		return nil, err
	}
	if f.handed != nil {
		return f.handed, nil
	}
	return f.merged, nil
}

// GetRow reads every cell of a row with read quorum r, by the digest
// read and its fallback as Get does. The result is sorted by column
// name, each entry's Key the name, tombstones included. The entries
// may alias a replica's storage and must not be modified.
func (c *Coordinator) GetRow(ctx context.Context, table, row string, r int) ([]model.Entry, error) {
	get := transport.GetReq{Table: table, Row: row, AllColumns: true}
	q, sp, d, err := c.tryDigest(ctx, get, r)
	if err != nil {
		return nil, err
	}
	defer sp.Finish()
	if d != nil {
		return d.fullCells, nil
	}
	get.Span = sp
	f := &fullRowRead{c: c, plain: plain{get}, table: table, row: row,
		responders: make(map[transport.NodeID][]model.Entry, len(q.replicas))}
	if err := c.round(ctx, readKind, q, !c.opts.DisableReadRepair, f); err != nil {
		return nil, err
	}
	if f.detached {
		return f.handed, nil
	}
	return f.merged, nil
}

// tryDigest places get's row, opens the read's span and, when the
// quorum needs two replies or more, runs the digest read: d is non-nil
// if it won. Otherwise the caller runs its full round over q, whose
// replicas are then in the digest read's order.
func (c *Coordinator) tryDigest(ctx context.Context, get transport.GetReq, r int) (q quorum, sp *trace.Span, d *digestRead, err error) {
	c.bump(func(s *Stats) { s.Gets++ })
	if q, err = c.quorumFor(get.Table, get.Row, r); err != nil {
		return q, nil, nil, err
	}
	sp = c.span(ctx, "coord.get", get.Table, get.Row, q)
	if q.need < 2 {
		return q, sp, nil, nil
	}
	reread := get
	get.Span = sp
	d = &digestRead{c: c, full: get, digest: transport.GetDigestReq(get), reread: reread}
	// The full row comes from the coordinator's own node when it is a
	// replica (no network hop in the simulated fabric), else from the
	// first replica; either way it is asked first. The ring's set is
	// shared, so the order is kept in the read's own array.
	q.replicas = append(d.order[:0], q.replicas...)
	for i, rep := range q.replicas {
		if rep == c.self {
			q.replicas[0], q.replicas[i] = rep, q.replicas[0]
		}
	}
	d.replicas, d.fullNode = q.replicas, q.replicas[0]
	// Read repair is what late replies are for: without it a read asks
	// no more replicas than its quorum needs.
	if c.round(ctx, readKind, q, !c.opts.DisableReadRepair, d) != nil {
		return q, sp, nil, nil
	}
	c.bump(func(s *Stats) { s.DigestReads++ })
	return q, sp, d, nil
}

// fullRead is the exchange of the classic quorum read of named
// columns: every replica's cells, merged position by position with
// LWW; once all are in, every responder that returned stale or missing
// versions is repaired.
type fullRead struct {
	plain
	c          *Coordinator
	table, row string
	columns    []string
	merged     []model.Cell // LWW merge of the replies folded so far, aligned with columns
	handed     []model.Cell // the caller's snapshot, if stragglers are still merging
	responders map[transport.NodeID][]model.Cell
}

func (f *fullRead) fold(res transport.Result) (int, error) {
	resp, ok := res.Resp.(transport.GetResp)
	if !ok || res.Err != nil {
		return 0, failure(res)
	}
	if len(resp.Cells) != len(f.columns) {
		return 0, misaligned(res.From, len(resp.Cells), len(f.columns))
	}
	f.responders[res.From] = resp.Cells
	mergeCells(f.merged, resp.Cells)
	return 1, nil
}

func (f *fullRead) detach() { f.handed = slices.Clone(f.merged) }

func (f *fullRead) settled() {
	readRepair(f.c, f.table, f.responders, func(seen []model.Cell) []model.Entry {
		var fix []model.Entry
		for i, win := range f.merged {
			// A column named twice is pushed once.
			if win.Exists() && win.Wins(seen[i]) && !slices.Contains(f.columns[:i], f.columns[i]) {
				fix = append(fix, model.Entry{Key: model.EncodeKey(f.row, f.columns[i]), Cell: win})
			}
		}
		slices.SortFunc(fix, func(a, b model.Entry) int { return bytes.Compare(a.Key, b.Key) })
		return fix
	})
}

// fullRowRead is fullRead for whole rows: the replies are sorted
// entries, merged by a merge walk.
type fullRowRead struct {
	plain
	c          *Coordinator
	table, row string
	merged     []model.Entry // LWW merge of the replies folded so far; replaced, never modified
	handed     []model.Entry // merged when the caller took it, if stragglers are still merging
	detached   bool
	responders map[transport.NodeID][]model.Entry
}

func (f *fullRowRead) fold(res transport.Result) (int, error) {
	resp, ok := res.Resp.(transport.RowResp)
	if !ok || res.Err != nil {
		return 0, failure(res)
	}
	f.responders[res.From] = resp.Cells
	f.merged = mergeEntries(f.merged, resp.Cells)
	return 1, nil
}

func (f *fullRowRead) detach() { f.handed, f.detached = f.merged, true }

func (f *fullRowRead) settled() {
	readRepair(f.c, f.table, f.responders, func(seen []model.Entry) []model.Entry {
		var fix []model.Entry
		for _, win := range f.merged {
			for len(seen) > 0 && bytes.Compare(seen[0].Key, win.Key) < 0 {
				seen = seen[1:]
			}
			if len(seen) == 0 || !bytes.Equal(seen[0].Key, win.Key) || win.Cell.Wins(seen[0].Cell) {
				fix = append(fix, model.Entry{Key: append(model.RowPrefix(f.row), win.Key...), Cell: win.Cell})
			}
		}
		return fix
	})
}

// nullCells returns n cells that read as never written, the start of
// a merge of named columns.
func nullCells(n int) []model.Cell {
	out := make([]model.Cell, n)
	for i := range out {
		out[i] = model.NullCell
	}
	return out
}

// mergeCells folds the existing cells of src into dst, position by
// position, with LWW.
func mergeCells(dst, src []model.Cell) {
	for i, cell := range src {
		switch {
		case !cell.Exists():
		case dst[i].Exists():
			dst[i] = model.Merge(dst[i], cell)
		default:
			dst[i] = cell
		}
	}
}

// misaligned is why a reply of named cells cannot be merged: it does
// not hold one cell per column asked.
func misaligned(from transport.NodeID, got, want int) error {
	return fmt.Errorf("coord: node %d answered %d cells for %d columns", from, got, want)
}

// mergeEntries returns, in a new slice, the LWW merge of the existing
// cells of two rows of entries sorted by key.
func mergeEntries(a, b []model.Entry) []model.Entry {
	out := make([]model.Entry, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		var e model.Entry
		switch {
		case len(b) == 0 || len(a) > 0 && bytes.Compare(a[0].Key, b[0].Key) < 0:
			e, a = a[0], a[1:]
		case len(a) == 0 || bytes.Compare(a[0].Key, b[0].Key) > 0:
			e, b = b[0], b[1:]
		default:
			e = model.Entry{Key: a[0].Key, Cell: model.Merge(a[0].Cell, b[0].Cell)}
			a, b = a[1:], b[1:]
		}
		if e.Cell.Exists() {
			out = append(out, e)
		}
	}
	return out
}

// entriesDigest is model.RowDigest of the row the entries make up,
// keyed by column name.
func entriesDigest(es []model.Entry) uint64 {
	digest := model.DigestSeed
	for _, e := range es {
		digest ^= model.CellDigest(e.Key, e.Cell)
	}
	return digest
}

// readRepair pushes to every responder the winning cells it returned
// stale or missing versions of, as stale computes them from what it
// returned: one push after another in ascending node order, each
// push's entries in key order, so repair traffic is the same from run
// to run.
func readRepair[R any](c *Coordinator, table string, responders map[transport.NodeID]R, stale func(seen R) []model.Entry) {
	var buf [8]transport.NodeID // on the stack for any sane replication factor
	nodes := buf[:0]
	for nodeID := range responders {
		nodes = append(nodes, nodeID)
	}
	slices.Sort(nodes)
	var targets []transport.NodeID
	var fixes []transport.ApplyEntriesReq
	for _, nodeID := range nodes {
		fix := stale(responders[nodeID])
		if len(fix) == 0 {
			continue
		}
		c.bump(func(s *Stats) { s.ReadRepairs++ })
		targets, fixes = append(targets, nodeID), append(fixes, transport.ApplyEntriesReq{Table: table, Entries: fix})
	}
	if len(targets) == 0 {
		return
	}
	// Fire and forget: the read that found the divergence does not wait
	// for its repair.
	c.Go(func() {
		for i, nodeID := range targets {
			_ = c.push(nodeID, fixes[i])
		}
	})
}

// --- Digest reads ----------------------------------------------------------

// errDiverged vetoes a digest read: a replica's digest disagrees with
// the full row, so the replicas must be merged.
var errDiverged = errors.New("coord: replica digests diverge")

// digestRead is the exchange of the digest read: the full row from one
// replica, digests from the rest. Digests are asked of every other
// replica — not just r-1 — so the read keeps the divergence-detection
// coverage of the full read. A digest that disagrees before the round
// returns vetoes it; one that arrives later marks its replica stale,
// and once every reply is in the stale replicas are re-read and
// repaired.
type digestRead struct {
	c            *Coordinator
	replicas     []transport.NodeID  // the round's order: the full replica first
	order        [8]transport.NodeID // backs replicas; the ring's set is shared
	fullNode     transport.NodeID
	full, digest transport.Request
	reread       transport.GetReq // full without its span, for repair after it finished

	// The full reply, never mutated once set: the read hands it to its
	// caller. fullRow holds named columns' cells, aligned with them;
	// fullCells a whole row.
	fullRow   []model.Cell
	fullCells []model.Entry
	want      uint64
	haveFull  bool
	early     []transport.Result // digests that arrived before the full row
	stale     []transport.NodeID
}

func (d *digestRead) request(to transport.NodeID) transport.Request {
	if to == d.fullNode {
		return d.full
	}
	return d.digest
}

func (d *digestRead) fold(res transport.Result) (int, error) {
	if res.Err != nil {
		if res.From == d.fullNode {
			return 0, veto{res.Err} // no full row, no digest read
		}
		return 0, res.Err // an unreachable replica never vetoes; quorum decides
	}
	switch resp := res.Resp.(type) {
	case transport.GetResp:
		cols := d.reread.Columns
		if len(resp.Cells) != len(cols) {
			return 0, veto{misaligned(res.From, len(resp.Cells), len(cols))}
		}
		d.fullRow = resp.Cells
		d.want = model.DigestCells(cols, resp.Cells)
		return d.haveFullReply()
	case transport.RowResp:
		d.fullCells = resp.Cells
		d.want = entriesDigest(resp.Cells)
		return d.haveFullReply()
	case transport.GetDigestResp:
		if !d.haveFull {
			d.early = append(d.early, res)
			return 0, nil
		}
		if resp.Digest != d.want {
			d.c.bump(func(s *Stats) { s.DigestMismatches++ })
			d.stale = append(d.stale, res.From)
			return 0, veto{errDiverged}
		}
		return 1, nil
	}
	return 0, failure(res)
}

// haveFullReply judges the digests that arrived before the full reply.
func (d *digestRead) haveFullReply() (int, error) {
	d.haveFull = true
	acks := 1 // the full replica agrees with itself
	for _, e := range d.early {
		n, err := d.fold(e)
		if err != nil {
			return 0, err
		}
		acks += n
	}
	return acks, nil
}

func (d *digestRead) detach() {}

// settled repairs the replicas whose digests disagreed with the
// trusted full row: a full read over just them, starting from the full
// row and taking every other replica to hold it (its digest matched,
// or it did not answer and a push it does not need is harmless), merges
// what they hold and pushes the winning cells to whoever is stale.
func (d *digestRead) settled() {
	if len(d.stale) == 0 {
		return
	}
	r := d.reread
	var f exchange
	if r.AllColumns {
		rf := &fullRowRead{c: d.c, plain: plain{r}, table: r.Table, row: r.Row,
			merged: d.fullCells, responders: make(map[transport.NodeID][]model.Entry, len(d.replicas))}
		for _, rep := range d.replicas {
			rf.responders[rep] = d.fullCells
		}
		f = rf
	} else {
		mf := &fullRead{c: d.c, plain: plain{r}, table: r.Table, row: r.Row, columns: r.Columns,
			merged: slices.Clone(d.fullRow), responders: make(map[transport.NodeID][]model.Cell, len(d.replicas))}
		for _, rep := range d.replicas {
			mf.responders[rep] = d.fullRow
		}
		f = mf
	}
	_ = d.c.round(context.Background(), readKind, quorum{d.stale, 1}, true, f)
}

// --- MultiGet --------------------------------------------------------------

// RowRead names one row (and column selection) of a MultiGet batch.
type RowRead = transport.RowRead

// RowCells is one row of a MultiGet result: a named read's cells or a
// whole-row read's entries.
type RowCells = transport.RowCells

// replicaSetKey builds a map key identifying an ordered replica set.
func replicaSetKey(reps []transport.NodeID) string {
	b := make([]byte, 0, 4*len(reps))
	for _, id := range reps {
		b = binary.AppendVarint(b, int64(id))
	}
	return string(b)
}

// multiRead is the exchange of one MultiGet batch: the rows sharing a
// replica set, each reply merged index-aligned into the caller's
// result. It never drains: the rows are the caller's once the round
// returns.
type multiRead struct {
	plain
	q    quorum
	rows []transport.RowRead
	idxs []int // positions of rows in the caller's reads slice
	out  []RowCells
}

func (m *multiRead) fold(res transport.Result) (int, error) {
	resp, ok := res.Resp.(transport.MultiGetResp)
	if !ok || res.Err != nil {
		return 0, failure(res)
	}
	if len(resp.Rows) != len(m.idxs) {
		return 0, fmt.Errorf("coord: node %d answered %d of %d rows", res.From, len(resp.Rows), len(m.idxs))
	}
	for j, got := range resp.Rows {
		if want := len(m.rows[j].Columns); !m.rows[j].AllColumns && len(got.Cells) != want {
			return 0, misaligned(res.From, len(got.Cells), want)
		}
	}
	for j, got := range resp.Rows {
		out := &m.out[m.idxs[j]]
		if m.rows[j].AllColumns {
			out.Entries = mergeEntries(out.Entries, got.Entries)
		} else {
			mergeCells(out.Cells, got.Cells)
		}
	}
	return 1, nil
}

// MultiGet reads several rows of one table, each with read quorum r,
// in as few round trips as possible: rows that place onto the same
// replica set are batched into a single MultiGetReq per replica. The
// result is index-aligned with reads: a read of named columns gets
// Cells aligned with them, model.NullCell for a column written
// nowhere; a whole-row read gets Entries sorted by column name, none
// for a row that exists nowhere. MultiGet performs no read repair — it
// serves speculative lookups (view chain walks) where repair traffic
// would be wasted on guesses.
func (c *Coordinator) MultiGet(ctx context.Context, table string, reads []RowRead, r int) ([]RowCells, error) {
	if len(reads) == 0 {
		return nil, nil
	}
	c.bump(func(s *Stats) {
		s.MultiGets++
		s.MultiGetRows += int64(len(reads))
	})
	named := 0
	for _, rd := range reads {
		if !rd.AllColumns {
			named += len(rd.Columns)
		}
	}
	cells := nullCells(named) // every named read's cells, carved in order
	out := make([]RowCells, len(reads))
	groups := map[string]*multiRead{}
	var order []*multiRead
	for i, rd := range reads {
		q, err := c.quorumFor(table, rd.Row, r)
		if err != nil {
			return nil, err
		}
		key := replicaSetKey(q.replicas)
		g := groups[key]
		if g == nil {
			g = &multiRead{q: q, out: out}
			groups[key] = g
			order = append(order, g)
		}
		g.idxs = append(g.idxs, i)
		g.rows = append(g.rows, rd)
		if !rd.AllColumns {
			n := len(rd.Columns)
			out[i].Cells, cells = cells[:n:n], cells[n:]
		}
	}
	sp := trace.FromContext(ctx)
	for _, g := range order {
		g.req = transport.MultiGetReq{Table: table, Rows: g.rows, Span: sp}
		if err := c.round(ctx, readKind, g.q, false, g); err != nil {
			return nil, err
		}
	}
	return out, nil
}

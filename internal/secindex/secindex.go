// Package secindex implements the query side of native secondary
// indexes: Cassandra-style indexes that are partitioned and
// distributed by *primary* key, co-located with the data.
//
// Each node maintains its fragment synchronously with its local writes
// (see internal/node), which is why index writes are cheap. The price
// is paid at read time: a lookup by secondary key cannot be routed, so
// the coordinator must broadcast the query to every node and gather
// the fragments' answers — the paper's explanation for why SI reads
// are ~3.5x slower than view reads (Figures 3 and 4).
package secindex

import (
	"context"
	"fmt"
	"sort"
	"time"

	"vstore/internal/clock"
	"vstore/internal/model"
	"vstore/internal/transport"
)

// Options configure a querier.
type Options struct {
	// RequestTimeout bounds the broadcast round. Default 2s.
	RequestTimeout time.Duration
	// BestEffort, when set, tolerates unreachable nodes and returns
	// the matches found on the live ones. The default (false) fails
	// the query, since a missing fragment can hide matches.
	BestEffort bool
	// Clock supplies the timeout timer; nil uses the wall clock. The
	// simulator injects its virtual clock so broadcast timeouts elapse
	// in virtual time.
	Clock clock.Clock
}

// Querier broadcasts index lookups from one coordinator node.
type Querier struct {
	self  transport.NodeID
	trans transport.Transport
	peers func() []transport.NodeID
	opts  Options
	clk   clock.Clock
}

// New returns a querier coordinated by node self. peers enumerates the
// cluster membership.
func New(self transport.NodeID, trans transport.Transport, peers func() []transport.NodeID, opts Options) *Querier {
	if opts.RequestTimeout == 0 {
		opts.RequestTimeout = 2 * time.Second
	}
	return &Querier{self: self, trans: trans, peers: peers, opts: opts, clk: clock.Or(opts.Clock)}
}

// Result is one base-table row matched by an index query.
type Result struct {
	Key   string
	Cells model.Row
}

// Query returns every row of table whose indexed column currently
// equals value, with the requested read columns. Results are sorted by
// row key for determinism.
func (q *Querier) Query(ctx context.Context, table, column string, value []byte, readColumns []string) ([]Result, error) {
	nodes := q.peers()
	if len(nodes) == 0 {
		return nil, fmt.Errorf("secindex: no nodes")
	}
	req := transport.IndexQueryReq{Table: table, Column: column, Value: value, ReadColumns: readColumns}
	replies := make(chan transport.Result, len(nodes))
	for _, n := range nodes {
		n := n
		ch := q.trans.Call(q.self, n, req)
		go func() {
			select {
			case res := <-ch:
				replies <- res
			case <-q.clk.After(q.opts.RequestTimeout):
				replies <- transport.Result{From: n, Err: context.DeadlineExceeded}
			}
		}()
	}

	type agg struct {
		indexed model.Cell
		cells   model.Row
	}
	byKey := map[string]*agg{}
	for range nodes {
		var res transport.Result
		select {
		case res = <-replies:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if res.Err != nil {
			if q.opts.BestEffort {
				continue
			}
			return nil, fmt.Errorf("secindex: node %d unreachable: %w", res.From, res.Err)
		}
		ir, ok := res.Resp.(transport.IndexQueryResp)
		if !ok {
			return nil, fmt.Errorf("secindex: unexpected response %T", res.Resp)
		}
		for _, m := range ir.Matches {
			a := byKey[m.Row]
			if a == nil {
				a = &agg{indexed: model.NullCell, cells: model.Row{}}
				byKey[m.Row] = a
			}
			a.indexed = model.Merge(a.indexed, m.IndexedCell)
			for i, cell := range m.Cells {
				if !cell.Exists() || i >= len(readColumns) {
					continue
				}
				col := readColumns[i]
				if old, ok := a.cells[col]; ok {
					a.cells[col] = model.Merge(old, cell)
				} else {
					a.cells[col] = cell
				}
			}
		}
	}

	out := make([]Result, 0, len(byKey))
	for key, a := range byKey {
		// Re-validate: the freshest replica value of the indexed
		// column must still match the query, otherwise the fragment
		// entry was stale (the row has since moved to another value).
		if a.indexed.IsNull() || string(a.indexed.Value) != string(value) {
			continue
		}
		out = append(out, Result{Key: key, Cells: a.cells})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

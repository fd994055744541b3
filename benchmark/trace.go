package main

import (
	"context"
	"sync"
	"time"

	"vstore"
	"vstore/internal/clock"
	"vstore/internal/cluster"
	"vstore/internal/core"
	"vstore/internal/model"
	"vstore/internal/physical"
	"vstore/internal/transport"
	"vstore/internal/wal"
)

// The traced run attributes an operation's time to layers from the
// outside. The program is not edited: the harness itself calls each
// layer's public function the way the layer above calls it, one rung
// after the other, and records a span around every call. A layer's self
// time is the median of its spans minus the median of the spans of the
// rung below, weighted by how many of those calls the layer makes.
// Medians, because a rung's few thousand calls catch a stall of the
// process now and then (one 250 ms Put among 2,500 moves their mean by
// 100 µs, more than their median), and a stall is not the layer's work.
//
// Three stacks serve the rungs:
//   - the public vstore.DB, for the client rung and for every count the
//     public surface exposes (Stats deltas, TableStats, RecoveryStats,
//     and the counting storage backend);
//   - a stack assembled from internal/cluster and internal/core with the
//     identical configuration, which exposes the managers, coordinators,
//     nodes and — through the recording transport — the fabric;
//   - fixtures cut from that stack's node 0, for the storage rungs.
//
// Three rules keep the rungs comparable. Every call gets its own key
// from the workload's key stream: walking one key down the ladder would
// time every lower rung on caches the rung above has just warmed (on
// view_read, Coordinator.Get takes 5.5 µs on the key Manager.GetView has
// just read and 10.5 µs on a fresh one). Every rung runs as a closed
// loop of its own for an equal share of the time, as the operation does
// in the closed-loop window; see ladder. And the ladder waits for view
// maintenance to finish after every rung that starts some, so no rung
// is timed while the previous rung's propagations compete with it.

// span is one timed call into a layer's public function.
type span struct {
	Name string `json:"name"`
	Op   int    `json:"op_id"`
	// Parent is the index of a span of the rung above, -1 at the top. It
	// names the caller's layer; the rungs run one after the other on
	// different keys, so the intervals are not nested.
	Parent int   `json:"parent"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. One goroutine at a
// time records into it.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: clock.Wall.Now(), spans: make([]span, 0, 1<<19)}
}

// add records a finished span and returns its index.
func (t *tracer) add(name string, op, parent int, start time.Time, d time.Duration) int {
	s := int64(start.Sub(t.origin))
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: s, End: s + int64(d)})
	return len(t.spans) - 1
}

// time runs f inside a span.
func (t *tracer) time(name string, op, parent int, f func()) int {
	start := clock.Wall.Now()
	f()
	return t.add(name, op, parent, start, clock.Wall.Now().Sub(start))
}

// byName groups span durations (ns) by span name, each group sorted.
func (t *tracer) byName() map[string]merged {
	recs := map[string]*recorder{}
	for _, s := range t.spans {
		if recs[s.Name] == nil {
			recs[s.Name] = &recorder{}
		}
		recs[s.Name].observe(time.Duration(s.End - s.Start))
	}
	out := map[string]merged{}
	for name, r := range recs {
		out[name] = merge(r)
	}
	return out
}

// Span names by operation kind: windowSpan for the traced closed-loop
// window, clientSpan for the ladder's client rung.
var (
	windowSpan = map[opKind]string{opGetView: "window.getview", opGet: "window.get", opPut: "window.put"}
	clientSpan = map[opKind]string{opGetView: "client.getview", opPut: "client.put"}
)

// stack is the harness-assembled twin of a vstore.DB: same cluster,
// same view catalog, but with the layers in reach.
type stack struct {
	cl   *cluster.Cluster
	rec  *recTransport
	reg  *core.Registry
	mgrs []*core.Manager
	ts   *clock.Source
	// cells[k] is the view-key cell last written to row k. The write
	// rungs below the manager re-apply it: last-writer-wins makes that a
	// no-op on the data, so base table and view stay in step, while the
	// call still costs a replica what an application costs.
	cells []model.ColumnUpdate
}

func openStack(sp *spec, seed int64, backend physical.Backend) (*stack, error) {
	rec := newRecTransport()
	cl, err := cluster.Open(cluster.Config{
		Transport: rec, FlushBytes: sp.flushBytes, Seed: seed,
		// What vstore.Open passes for a zero DurabilityOptions.
		Backend: backend, Durability: wal.Options{Policy: wal.SyncInterval},
	})
	if err != nil {
		return nil, err
	}
	s := &stack{cl: cl, rec: rec, reg: core.NewRegistry(core.Options{}), ts: clock.NewSource(nil)}
	for i := 0; i < cl.Size(); i++ {
		s.mgrs = append(s.mgrs, core.NewManager(s.reg, cl.Coordinator(i)))
	}
	for _, t := range []string{baseTable, viewName} {
		if err := cl.CreateTable(t); err != nil {
			s.close()
			return nil, err
		}
	}
	def := core.Def{Name: viewName, Base: baseTable, ViewKeyColumn: keyCol, Materialized: []string{payloadCol}}
	if err := s.reg.Define(def); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *stack) close() {
	s.reg.Close()
	s.cl.Close()
}

const quorum = 2 // W = R = 2 of N = 3, the store's default

func (s *stack) quiesce(ctx context.Context) error {
	for _, m := range s.mgrs {
		if err := m.Quiesce(ctx); err != nil {
			return err
		}
	}
	return nil
}

// load writes every row through the manager of the client that owns it.
func (s *stack) load(ctx context.Context, ds *dataset) error {
	s.cells = make([]model.ColumnUpdate, ds.rows)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := i; k < ds.rows; k += clients {
				s.cells[k] = model.Update(keyCol, []byte(ds.secs[k]), s.ts.Next())
				ups := []model.ColumnUpdate{model.Update(payloadCol, []byte(ds.payloads[k]), s.ts.Next()), s.cells[k]}
				if err := s.mgrs[i].Put(ctx, baseTable, ds.keys[k], ups, quorum, nil); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return s.quiesce(ctx)
}

// nodeRequests sums every node's handled-request counters.
func (s *stack) nodeRequests() int64 {
	var n int64
	for _, nd := range s.cl.Nodes {
		for _, v := range nd.RequestCounts() {
			n += v
		}
	}
	return n
}

// coordTotals sums the coordinators' Get and Put round counters.
func (s *stack) coordTotals() (gets, puts int64) {
	for _, co := range s.cl.Coords {
		st := co.Stats()
		gets += st.Gets
		puts += st.Puts
	}
	return gets, puts
}

// topRung issues one operation at the highest rung the stack has — the
// view manager — checks it, and reports whether it was right.
func (s *stack) topRung(ctx context.Context, m *oracle, c *client, kind opKind, k int) bool {
	mgr := s.mgrs[c.id]
	switch kind {
	case opGetView:
		rows, err := mgr.GetView(ctx, viewName, m.curSec(k), nil)
		return err == nil && len(rows) == 1 && rows[0].BaseKey == m.ds.keys[k]
	case opPut:
		id := c.freshID(m.ds.rows)
		up := model.Update(keyCol, []byte(sec(id)), s.ts.Next())
		if err := mgr.Put(ctx, baseTable, m.ds.keys[k], []model.ColumnUpdate{up}, quorum, nil); err != nil {
			return false
		}
		s.cells[k] = up
		m.ack(k, id)
	}
	return true // base reads bypass the view manager; the stack has no rung for them
}

// stackCounts is what the counting window of the stack measured.
type stackCounts struct {
	ops, puts int // top-rung operations issued: all, and the Puts among them
	calls     callCounts
	nodeReqs  int64
	coordGets int64
	coordPuts int64
}

// countWindow issues top-rung operations only for dur, lets maintenance
// finish, and returns how many calls crossed each seam. The rungs below
// are left alone so that every counted call was caused by an operation.
func (s *stack) countWindow(ctx context.Context, sp *spec, m *oracle, c *client, dur time.Duration, t *tally) (stackCounts, error) {
	var sc stackCounts
	calls0, reqs0 := s.rec.snapshot(), s.nodeRequests()
	gets0, puts0 := s.coordTotals()
	for start := clock.Wall.Now(); clock.Wall.Now().Sub(start) < dur; {
		kind, k := sp.next(c, m.ds.rows)
		if kind == opGet {
			continue
		}
		t.attempted++
		if !s.topRung(ctx, m, c, kind, k) {
			t.failed++
		}
		sc.ops++
		if kind == opPut {
			sc.puts++
		}
	}
	if err := s.quiesce(ctx); err != nil {
		return sc, err
	}
	sc.calls = s.rec.snapshot().sub(calls0)
	sc.nodeReqs = s.nodeRequests() - reqs0
	gets1, puts1 := s.coordTotals()
	sc.coordGets, sc.coordPuts = gets1-gets0, puts1-puts0
	return sc, nil
}

// public is the vstore.DB side of a ladder pass: the store, the oracle
// of its contents and client 0.
type public struct {
	db *vstore.DB
	m  *oracle
	c  *client
}

// ladderRung is one step of a ladder: a call into one layer's public
// function the way the layer above makes it.
type ladderRung struct {
	name   string
	parent int // position of the rung above in the ladder, -1 at the top
	// call makes one call on a key of its own and returns when it started
	// and how long it took.
	call func() (time.Time, time.Duration)
	// settle waits for the maintenance the rung's calls started, so the
	// next rung is not timed against it; nil when the rung starts none.
	settle func() error
}

// weight is the rung's share of the ladder's time. A rung that starts
// maintenance runs beside it, and its latency moves with the backlog and
// the collector for tenths of a second at a time (a Put's median over
// 0.2 s slices of one window: 80 to 159 µs); it gets four times the
// time of a rung that only reads or re-applies.
func (r ladderRung) weight() int {
	if r.settle != nil {
		return 4
	}
	return 1
}

func timed(f func()) (time.Time, time.Duration) {
	start := clock.Wall.Now()
	f()
	return start, clock.Wall.Now().Sub(start)
}

// ladder walks, for each kind of operation in the workload's mix, every
// rung that kind crosses — the public client on pub, then the stack from
// the view manager down to the node handler. The rungs share dur by
// weight; each runs as a closed loop of its own for its share, every
// call on a key drawn from the workload's stream and inside its own
// span, and then settles. Running a rung on its own for thousands of calls times it with
// the processor's caches in the state the closed-loop window leaves them
// in; one call per rung in turn would time every rung cold
// (Client.GetView: 16 µs against 11 µs).
func (s *stack) ladder(ctx context.Context, sp *spec, pub public, m *oracle, c *client, tr *tracer, dur time.Duration, t *tally) error {
	co := s.cl.Coordinator(c.id)
	self := co.Self()
	direct := s.rec.inner // the rung is transport.Direct itself
	cols := []string{keyCol}
	check := func(ok bool) {
		t.attempted++
		if !ok {
			t.failed++
		}
	}
	client := func(kind opKind) func() (time.Time, time.Duration) {
		return func() (time.Time, time.Duration) {
			start, d, ok := pub.c.do(ctx, pub.m, kind, sp.key(pub.c, kind, pub.m.ds.rows))
			check(ok)
			return start, d
		}
	}
	top := func(kind opKind) func() (time.Time, time.Duration) {
		return func() (time.Time, time.Duration) {
			k, ok := sp.key(c, kind, m.ds.rows), false
			start, d := timed(func() { ok = s.topRung(ctx, m, c, kind, k) })
			check(ok)
			return start, d
		}
	}
	viewRow := func() string { return m.curSec(sp.key(c, opGetView, m.ds.rows)) }
	baseRow := func() int { return sp.key(c, opPut, m.ds.rows) }
	// The coordinator reads the full row from itself when it is a
	// replica, else from the first replica, and digests from the rest.
	fullReplica := func(row string) transport.NodeID {
		reps := co.ReplicasFor(viewName, row)
		for _, r := range reps {
			if r == self {
				return r
			}
		}
		return reps[0]
	}
	getReq := func(row string) transport.GetReq {
		return transport.GetReq{Table: viewName, Row: row, AllColumns: true}
	}
	digReq := func(row string) transport.GetDigestReq {
		return transport.GetDigestReq{Table: viewName, Row: row, AllColumns: true}
	}
	// The write rungs below the manager re-apply the cell last written
	// to the row (see stack.cells).
	putReq := func(k int) transport.PutReq {
		return transport.PutReq{Table: baseTable, Row: m.ds.keys[k], Updates: []model.ColumnUpdate{s.cells[k]}}
	}
	preReq := func(k int) transport.GetReq {
		return transport.GetReq{Table: baseTable, Row: m.ds.keys[k], Columns: cols}
	}
	ladders := map[opKind][]ladderRung{
		opGetView: {
			{name: clientSpan[opGetView], parent: -1, call: client(opGetView)},
			{name: "core.getview", parent: 0, call: top(opGetView)},
			{name: "coord.get", parent: 1, call: func() (time.Time, time.Duration) {
				row := viewRow()
				return timed(func() { _, _ = co.Get(ctx, viewName, row, nil, quorum, true) })
			}},
			{name: "transport.get", parent: 2, call: func() (time.Time, time.Duration) {
				row := viewRow()
				to, req := fullReplica(row), getReq(row)
				return timed(func() { direct.CallSync(self, to, req) })
			}},
			{name: "transport.getdigest", parent: 2, call: func() (time.Time, time.Duration) {
				row := viewRow()
				reps, req := co.ReplicasFor(viewName, row), digReq(row)
				return timed(func() { direct.CallSync(self, reps[len(reps)-1], req) })
			}},
			{name: "node.get", parent: 3, call: func() (time.Time, time.Duration) {
				row := viewRow()
				nd, req := s.cl.Nodes[co.ReplicasFor(viewName, row)[0]], getReq(row)
				return timed(func() { _, _ = nd.HandleRequest(self, req) })
			}},
			{name: "node.getdigest", parent: 4, call: func() (time.Time, time.Duration) {
				row := viewRow()
				nd, req := s.cl.Nodes[co.ReplicasFor(viewName, row)[0]], digReq(row)
				return timed(func() { _, _ = nd.HandleRequest(self, req) })
			}},
		},
		opPut: {
			{name: clientSpan[opPut], parent: -1, call: client(opPut), settle: func() error { return pub.db.QuiesceViews(ctx) }},
			{name: "core.put", parent: 0, call: top(opPut), settle: func() error { return s.quiesce(ctx) }},
			{name: "coord.preread", parent: 1, call: func() (time.Time, time.Duration) {
				row := m.ds.keys[baseRow()]
				return timed(func() { _, _ = co.GetVersions(ctx, baseTable, row, cols, quorum) })
			}},
			{name: "coord.put", parent: 1, call: func() (time.Time, time.Duration) {
				k := baseRow()
				ups := []model.ColumnUpdate{s.cells[k]}
				return timed(func() { _ = co.Put(ctx, baseTable, m.ds.keys[k], ups, quorum) })
			}},
			{name: "transport.put", parent: 3, call: func() (time.Time, time.Duration) {
				req := putReq(baseRow())
				to := co.ReplicasFor(baseTable, req.Row)[0]
				return timed(func() { direct.CallSync(self, to, req) })
			}},
			{name: "transport.preget", parent: 2, call: func() (time.Time, time.Duration) {
				req := preReq(baseRow())
				to := co.ReplicasFor(baseTable, req.Row)[0]
				return timed(func() { direct.CallSync(self, to, req) })
			}},
			{name: "node.put", parent: 4, call: func() (time.Time, time.Duration) {
				req := putReq(baseRow())
				nd := s.cl.Nodes[co.ReplicasFor(baseTable, req.Row)[0]]
				return timed(func() { _, _ = nd.HandleRequest(self, req) })
			}},
			{name: "node.preget", parent: 5, call: func() (time.Time, time.Duration) {
				req := preReq(baseRow())
				nd := s.cl.Nodes[co.ReplicasFor(baseTable, req.Row)[0]]
				return timed(func() { _, _ = nd.HandleRequest(self, req) })
			}},
		},
	}
	var walk []ladderRung
	shares := 0
	for _, kind := range sp.ladders {
		for _, r := range ladders[kind] {
			walk = append(walk, r)
			shares += r.weight()
		}
	}
	type block struct{ first, n int } // one rung's spans in tr.spans
	var blocks []block                // of the ladder being walked
	for _, r := range walk {
		if r.parent < 0 {
			blocks = blocks[:0]
		}
		b := block{first: len(tr.spans)}
		share := dur * time.Duration(r.weight()) / time.Duration(shares)
		for begin := clock.Wall.Now(); b.n == 0 || clock.Wall.Now().Sub(begin) < share; b.n++ {
			start, d := r.call()
			parent := -1
			if r.parent >= 0 {
				// The call of the rung above with the same ordinal, or its last.
				up := blocks[r.parent]
				parent = up.first + min(b.n, up.n-1)
			}
			tr.add(r.name, b.n, parent, start, d)
		}
		blocks = append(blocks, b)
		if r.settle != nil {
			if err := r.settle(); err != nil {
				return err
			}
		}
	}
	return nil
}

// selfTimes turns span medians (ns, by span name) into self times: each
// rung's median minus what the rungs below it account for. getRowNs and
// applyNs are the storage rung's means from the fixtures' tight loops;
// digests is how many digest calls a coordinator read makes.
//
// Read:  client.getview → core.getview → coord.get → transport.get +
// digests → node.get → lsm.getrow. A coordinator read visits its
// replicas one after the other, so its children add up.
//
// Write: client.put → core.put → coord.preread + coord.put →
// transport.put → node.put → lsm.apply. A coordinator write runs its
// replicas' handlers concurrently, so one child is on the blocking
// path; the others overlap it.
//
// Every self time is a difference of numbers the rungs measured one by
// one, on keys of their own and — the client rung — on another store
// than the rungs below it: a self time can come out negative, and is
// printed as measured. The sum of a chain's self times and leaves is
// its client span by construction, so trace.ladder_closure compares
// that sum (negative self times counted as zero) with a number the
// ladder did not produce: the median of the same operation in the
// traced closed-loop window (spans window.getview / window.put). Near
// 1, the rungs account for the operation as a client sees it; above 1
// by what was clamped or by what the rung's own loop costs more than
// the window's.
func selfTimes(pl perLayerSet, ns map[string]float64, digests, getRowNs, applyNs float64) {
	self := func(name string, span float64, below ...float64) float64 {
		for _, b := range below {
			span -= b
		}
		pl.set(name, span/1e3)
		return max(span, 0)
	}
	closure := 0.0
	if top := ns["client.getview"]; top > 0 {
		get, dig := ns["transport.get"], ns["transport.getdigest"]
		sum := self("client.getview_self_us", top, ns["core.getview"])
		sum += self("core.getview_self_us", ns["core.getview"], ns["coord.get"])
		sum += self("coord.get_self_us", ns["coord.get"], get, digests*dig)
		sum += self("node.get_self_us", ns["node.get"], getRowNs)
		// Below the selfs above: the fabric around the full read, the
		// digest calls whole, and the storage read.
		sum += max(get-ns["node.get"], 0) + digests*dig + getRowNs
		closure = ratio(sum, ns["window.getview"])
	}
	if top := ns["client.put"]; top > 0 {
		put := ns["transport.put"]
		sum := self("client.put_self_us", top, ns["core.put"])
		sum += self("core.put_self_us", ns["core.put"], ns["coord.preread"], ns["coord.put"])
		sum += self("coord.put_self_us", ns["coord.put"], put)
		sum += self("node.put_self_us", ns["node.put"], applyNs)
		sum += ns["coord.preread"] + max(put-ns["node.put"], 0) + applyNs
		if closure == 0 { // a mixed workload reports its read ladder's closure
			closure = ratio(sum, ns["window.put"])
		}
	}
	pl.set("trace.ladder_closure", closure)
}

// Package node implements a storage server: the thing that holds
// replicas. A node owns one LSM store per table it hosts, maintains
// local fragments of native secondary indexes synchronously with its
// local writes (the Cassandra design the paper compares against), and
// serves the request types defined in the transport package.
//
// For the experiment harness a node can be configured with a bounded
// worker pool and per-operation service times. This models the finite
// CPU/disk capacity of the paper's physical servers: an operation that
// must touch every node (a secondary-index query) then consumes N
// times the cluster resources of a single-partition read, which is
// precisely what produces the paper's throughput separations.
package node

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vstore/internal/clock"
	"vstore/internal/lsm"
	"vstore/internal/model"
	"vstore/internal/ring"
	"vstore/internal/trace"
	"vstore/internal/transport"
	"vstore/internal/wal"
)

// ServiceTimes model the local execution cost of each operation class.
// Zero values mean "free" (functional tests).
type ServiceTimes struct {
	// Read is the cost of a local row/cell read.
	Read time.Duration
	// Write is the cost of applying a local mutation.
	Write time.Duration
	// IndexRead is the cost of consulting the local fragment of a
	// native secondary index (Cassandra reads an index row plus the
	// matching data rows, making this the most expensive local op).
	IndexRead time.Duration
	// IndexWrite is the extra cost of synchronously maintaining the
	// local index fragment during a write.
	IndexWrite time.Duration
}

// Options configure a node.
type Options struct {
	ID transport.NodeID
	// Workers bounds concurrent request execution; 0 means unbounded.
	Workers int
	// Service sets per-operation simulated costs.
	Service ServiceTimes
	// LSM tunes the per-table storage engines.
	LSM lsm.Options
	// Clock supplies the service-time sleeps; nil uses the wall clock.
	Clock clock.Clock
	// Durable, when non-nil, gives every table store a write-ahead log
	// and durable sstable runs under this node's storage root. Index
	// fragments stay memory-only: they are derived state, rebuilt by
	// CreateIndex's back-fill after recovery.
	Durable *wal.Storage
}

// Node is one storage server.
type Node struct {
	opts Options
	clk  clock.Clock

	mu     sync.RWMutex
	tables map[string]*lsm.Store
	// indexes maps table → column → fragment. The inner maps are
	// copy-on-write (CreateIndex installs a new one), so a request
	// reads the one lookup handed it without holding mu.
	indexes map[string]map[string]*lsm.Store

	sem chan struct{}

	// placement lets the node answer placement-filtered anti-entropy
	// requests; installed by the cluster after the ring is built.
	placementMu sync.RWMutex
	placement   func(table, row string) []transport.NodeID

	// rowLocks serialize read-modify-write sections (pre-read for
	// propagation, synchronous index maintenance) per row.
	rowLocks [64]sync.Mutex

	// requests counts handled requests by kind.
	requests [numKinds]atomic.Int64
}

// reqKind indexes the per-kind request counters; kindNames holds the
// names RequestCounts reports them under.
type reqKind int

const (
	kindPut reqKind = iota
	kindGet
	kindGetDigest
	kindMultiGet
	kindApply
	kindIndexQuery
	kindDigest
	kindBucketFetch
	numKinds
)

var kindNames = [numKinds]string{
	"put", "get", "getdigest", "multiget", "apply", "indexquery", "digest", "bucketfetch",
}

// New returns an empty node.
func New(opts Options) *Node {
	n := &Node{
		opts:    opts,
		clk:     clock.Or(opts.Clock),
		tables:  map[string]*lsm.Store{},
		indexes: map[string]map[string]*lsm.Store{},
	}
	if opts.Workers > 0 {
		n.sem = make(chan struct{}, opts.Workers)
	}
	return n
}

// ID returns the node's identifier.
func (n *Node) ID() transport.NodeID { return n.opts.ID }

// table returns the store for name, creating it lazily. Lazy creation
// keeps replica-side handling idempotent: any node can receive writes
// for a table created at the cluster level without a registration
// round.
func (n *Node) table(name string) *lsm.Store {
	t, _ := n.lookup(name)
	return t
}

// lookup returns the store for name and the table's index fragments by
// column — nil, on all but the secondary-index baseline's tables —
// under one acquisition of the read lock, so a request pays for the
// node's catalog once.
func (n *Node) lookup(name string) (*lsm.Store, map[string]*lsm.Store) {
	n.mu.RLock()
	t, frags := n.tables[name], n.indexes[name]
	n.mu.RUnlock()
	if t != nil {
		return t, frags
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if t = n.tables[name]; t == nil {
		t = lsm.New(n.tableLSMOptions(name, len(n.tables)))
		n.tables[name] = t
	}
	return t, n.indexes[name]
}

// tableLSMOptions derives one table's engine options, wiring in the
// node's durable storage when configured. Caller holds n.mu.
func (n *Node) tableLSMOptions(name string, ord int) lsm.Options {
	opts := n.opts.LSM
	opts.Seed = opts.Seed*31 + int64(ord) + int64(n.opts.ID)
	if n.opts.Durable != nil {
		opts.Persist = n.opts.Durable.Table(name)
	}
	return opts
}

// Recover rebuilds the node's tables from its durable storage:
// manifest runs become the LSM's sstables, the WAL tail is replayed
// into fresh memtables, and the still-pending propagation intents are
// returned for the coordination layer to re-enqueue. Must run before
// the node serves requests.
func (n *Node) Recover() (wal.RecoveryStats, []wal.Intent, error) {
	if n.opts.Durable == nil {
		return wal.RecoveryStats{}, nil, nil
	}
	rec, err := n.opts.Durable.Recover()
	if err != nil {
		return wal.RecoveryStats{}, nil, err
	}
	names := make([]string, 0, len(rec.Tables))
	for name := range rec.Tables {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic per-table seeds
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, name := range names {
		rt := rec.Tables[name]
		runs := make([]lsm.Run, 0, len(rt.Runs))
		for _, r := range rt.Runs {
			runs = append(runs, lsm.Run{ID: r.ID, Table: r.Table})
		}
		st := lsm.NewFromRuns(n.tableLSMOptions(name, len(n.tables)), runs)
		st.Recover(rt.Tail)
		n.tables[name] = st
	}
	return rec.Stats, rec.Intents, nil
}

// CreateIndex declares a native secondary index fragment over
// table.column on this node. Existing rows are back-filled from the
// local store.
func (n *Node) CreateIndex(table, column string) {
	n.mu.Lock()
	if _, ok := n.indexes[table][column]; ok {
		n.mu.Unlock()
		return
	}
	frag := lsm.New(n.opts.LSM)
	frags := map[string]*lsm.Store{column: frag}
	for c, f := range n.indexes[table] {
		frags[c] = f
	}
	n.indexes[table] = frags
	n.mu.Unlock()

	// A write reads the index set under its row lock and applies under
	// it too. Taking every stripe once waits out each write that read
	// the set before the install, so the snapshot below holds what it
	// wrote; every later write sees the new fragment and maintains it.
	for i := range n.rowLocks {
		n.rowLocks[i].Lock()
		n.rowLocks[i].Unlock()
	}

	// Back-fill from current local content.
	for _, e := range n.table(table).Snapshot() {
		row, col, err := model.DecodeKey(e.Key)
		if err != nil || col != column || e.Cell.IsNull() {
			continue
		}
		frag.Apply(string(e.Cell.Value), row, model.Cell{TS: e.Cell.TS})
	}
}

func (n *Node) rowLock(table, row string) *sync.Mutex {
	return &n.rowLocks[ring.HashJoined(table, row)%uint64(len(n.rowLocks))]
}

// RequestCounts returns the number of requests handled so far, by
// kind; kinds never seen are absent.
func (n *Node) RequestCounts() map[string]int64 {
	out := make(map[string]int64, numKinds)
	for k := range n.requests {
		if v := n.requests[k].Load(); v > 0 {
			out[kindNames[k]] = v
		}
	}
	return out
}

// acquire counts the request, takes a worker slot and simulates the
// service time; release gives the slot back.
func (n *Node) acquire(kind reqKind, cost time.Duration) {
	if n.sem != nil {
		n.sem <- struct{}{}
	}
	if cost > 0 {
		n.clk.Sleep(cost)
	}
	n.requests[kind].Add(1)
}

func (n *Node) release() {
	if n.sem != nil {
		<-n.sem
	}
}

// span starts a replica-side child of the coordinator span carried on
// a request, tagging it with this node's identity and — for reads —
// the number of LSM runs the lookup consults. Untraced requests carry
// a nil parent and pay only this nil check.
func (n *Node) span(parent *trace.Span, op string, t *lsm.Store) *trace.Span {
	if parent == nil {
		return nil
	}
	sp := parent.Child(op)
	sp.SetAttr("node", fmt.Sprint(n.opts.ID))
	if t != nil {
		sp.SetAttr("lsm_runs", fmt.Sprint(t.RunCount()))
	}
	return sp
}

// HandleRequest implements transport.Handler.
func (n *Node) HandleRequest(from transport.NodeID, req transport.Request) (transport.Response, error) {
	switch r := req.(type) {
	case transport.PutReq:
		return n.handlePut(r)
	case transport.GetReq:
		return n.handleGet(r)
	case transport.GetDigestReq:
		return n.handleGetDigest(r)
	case transport.MultiGetReq:
		return n.handleMultiGet(r)
	case transport.ApplyEntriesReq:
		return n.handleApplyEntries(r)
	case transport.IndexQueryReq:
		return n.handleIndexQuery(r)
	case transport.DigestReq:
		return n.handleDigest(r)
	case transport.BucketFetchReq:
		return n.handleBucketFetch(r)
	default:
		return nil, fmt.Errorf("node %d: unknown request type %T", n.opts.ID, req)
	}
}

func (n *Node) handlePut(r transport.PutReq) (transport.Response, error) {
	cost := n.opts.Service.Write
	if n.opts.Service.IndexWrite > 0 {
		_, frags := n.lookup(r.Table)
		for _, u := range r.Updates {
			if frags[u.Column] != nil {
				cost += n.opts.Service.IndexWrite
				break
			}
		}
	}
	if len(r.ReturnVersionsOf) > 0 {
		cost += n.opts.Service.Read
	}
	n.acquire(kindPut, cost)
	defer n.release()

	sp := n.span(r.Span, "node.put", nil)
	if sp != nil && n.opts.Durable != nil {
		sp.SetAttr("wal.sync", n.opts.Durable.Policy().String())
	}
	defer sp.Finish()

	// The pre-read (Get-then-Put) and index maintenance both need the
	// read-modify-write to be atomic per row.
	lock := n.rowLock(r.Table, r.Row)
	lock.Lock()
	defer lock.Unlock()

	// The fragments are read under the row lock, not before the wait for
	// a worker slot: an index created during that wait back-filled
	// without this write, which therefore has to maintain it.
	t, frags := n.lookup(r.Table)
	var resp transport.PutResp
	var err error
	if len(frags) == 0 {
		resp.Old, err = n.putRow(t, r)
	} else {
		resp.Old, err = n.putIndexedRow(t, frags, r)
	}
	if err != nil {
		// The write is not durable; failing the request keeps it
		// unacknowledged so the coordinator can retry or fail.
		return nil, fmt.Errorf("node %d: apply: %w", n.opts.ID, err)
	}
	return resp, nil
}

// putRow is the put every un-indexed table takes: one row-level store
// write, blind unless the request asks for pre-images, which its single
// lookup per cell then also yields. The pre-images come back aligned
// with ReturnVersionsOf, nil when it is empty. The caller holds the row
// lock.
func (n *Node) putRow(t *lsm.Store, r transport.PutReq) ([]model.Cell, error) {
	if len(r.ReturnVersionsOf) == 0 {
		return nil, t.ApplyRow(r.Row, r.Updates, nil)
	}
	var scratch [4]model.Cell // pre-images of a typical put stay on the stack
	old := scratch[:]
	if len(r.Updates) > len(scratch) {
		old = make([]model.Cell, len(r.Updates))
	}
	old = old[:len(r.Updates)]
	if err := t.ApplyRow(r.Row, r.Updates, old); err != nil {
		return nil, err
	}
	pre := make([]model.Cell, len(r.ReturnVersionsOf))
	for j, col := range r.ReturnVersionsOf {
		// The pre-image is what the row held before the request: the
		// first update to the column saw it; a column the request does
		// not write still holds it.
		i := 0
		for i < len(r.Updates) && r.Updates[i].Column != col {
			i++
		}
		if i < len(r.Updates) {
			pre[j] = old[i]
		} else {
			pre[j], _ = t.Get(r.Row, col)
		}
	}
	return pre, nil
}

// putIndexedRow is the put of a table with native secondary indexes
// (the baseline the paper compares views against): cell at a time,
// each keeping its fragment in step.
func (n *Node) putIndexedRow(t *lsm.Store, frags map[string]*lsm.Store, r transport.PutReq) ([]model.Cell, error) {
	var pre []model.Cell
	if len(r.ReturnVersionsOf) > 0 {
		pre = t.GetColumns(r.Row, r.ReturnVersionsOf)
	}
	for _, u := range r.Updates {
		if err := n.applyWithIndex(t, frags[u.Column], r.Row, u); err != nil {
			return nil, err
		}
	}
	return pre, nil
}

// applyWithIndex applies one column update and keeps the column's
// local index fragment (nil if it has none) synchronized, mirroring
// Cassandra's synchronous local index maintenance. The caller holds
// the row lock. An error means the update was not applied (durable
// mode failed to log it).
func (n *Node) applyWithIndex(t *lsm.Store, frag *lsm.Store, row string, u model.ColumnUpdate) error {
	// Only an indexed column needs the cell it replaces; any other
	// update stays blind.
	if frag == nil {
		return t.ApplyRow(row, []model.ColumnUpdate{u}, nil)
	}
	var pre [1]model.Cell
	if err := t.ApplyRow(row, []model.ColumnUpdate{u}, pre[:]); err != nil {
		return err
	}
	old := pre[0]
	merged := model.Merge(old, u.Cell)
	if merged.Equal(old) {
		return nil // update lost LWW locally; index unchanged
	}
	valueChanged := old.IsNull() != merged.IsNull() || string(old.Value) != string(merged.Value)
	if valueChanged && old.Exists() && !old.Tombstone {
		// Remove the stale index entry under the update's timestamp.
		// Only when the indexed value really moved: tombstoning and
		// re-adding the same entry at one timestamp would let the
		// tombstone win the tie and drop the row from the index.
		frag.Apply(string(old.Value), row, model.Cell{TS: u.Cell.TS, Tombstone: true})
	}
	if !merged.Tombstone {
		frag.Apply(string(merged.Value), row, model.Cell{TS: merged.TS}) //nolint:errcheck // fragments are memory-only
	}
	return nil
}

func (n *Node) handleGet(r transport.GetReq) (transport.Response, error) {
	n.acquire(kindGet, n.opts.Service.Read)
	defer n.release()
	t := n.table(r.Table)
	sp := n.span(r.Span, "node.get", t)
	defer sp.Finish()
	if r.AllColumns {
		return transport.RowResp{Cells: t.GetRow(r.Row)}, nil
	}
	return transport.GetResp{Cells: t.GetColumns(r.Row, r.Columns)}, nil
}

// handleGetDigest performs the same local read as handleGet but
// answers with a 64-bit digest of the cells instead of the cells
// themselves, halving neither the read cost nor the row lock rules —
// only the reply size and the coordinator-side merge work. A read of
// named columns builds no row: the store digests each cell as it
// reads it, and a whole row is digested where the merge leaves it.
func (n *Node) handleGetDigest(r transport.GetDigestReq) (transport.Response, error) {
	n.acquire(kindGetDigest, n.opts.Service.Read)
	defer n.release()
	t := n.table(r.Table)
	sp := n.span(r.Span, "node.digest", t)
	defer sp.Finish()
	if r.AllColumns {
		return transport.GetDigestResp{Digest: t.DigestRow(r.Row)}, nil
	}
	return transport.GetDigestResp{Digest: t.DigestColumns(r.Row, r.Columns)}, nil
}

// handleMultiGet serves a batch of row reads in one request. Each row
// costs a full Service.Read — batching saves round trips and
// coordinator fan-out overhead, not storage work.
func (n *Node) handleMultiGet(r transport.MultiGetReq) (transport.Response, error) {
	n.acquire(kindMultiGet, time.Duration(len(r.Rows))*n.opts.Service.Read)
	defer n.release()
	t := n.table(r.Table)
	sp := n.span(r.Span, "node.multiget", t)
	sp.SetAttr("rows", fmt.Sprint(len(r.Rows)))
	defer sp.Finish()
	rows := make([]transport.RowCells, len(r.Rows))
	for i, rr := range r.Rows {
		if rr.AllColumns {
			rows[i].Entries = t.GetRow(rr.Row)
		} else {
			rows[i].Cells = t.GetColumns(rr.Row, rr.Columns)
		}
	}
	return transport.MultiGetResp{Rows: rows}, nil
}

func (n *Node) handleApplyEntries(r transport.ApplyEntriesReq) (transport.Response, error) {
	n.acquire(kindApply, n.opts.Service.Write)
	defer n.release()
	for _, e := range r.Entries {
		row, col, err := model.DecodeKey(e.Key)
		if err != nil {
			return nil, fmt.Errorf("node %d: corrupt entry key: %w", n.opts.ID, err)
		}
		lock := n.rowLock(r.Table, row)
		lock.Lock()
		t, frags := n.lookup(r.Table) // under the row lock, as in handlePut
		err = n.applyWithIndex(t, frags[col], row, model.ColumnUpdate{Column: col, Cell: e.Cell})
		lock.Unlock()
		if err != nil {
			return nil, fmt.Errorf("node %d: apply entries: %w", n.opts.ID, err)
		}
	}
	return transport.AckResp{}, nil
}

func (n *Node) handleIndexQuery(r transport.IndexQueryReq) (transport.Response, error) {
	n.acquire(kindIndexQuery, n.opts.Service.IndexRead)
	defer n.release()
	t, frags := n.lookup(r.Table)
	frag := frags[r.Column]
	if frag == nil {
		return transport.IndexQueryResp{}, nil
	}
	var matches []transport.IndexMatch
	for _, e := range frag.GetRow(string(r.Value)) {
		if e.Cell.IsNull() {
			continue
		}
		row := string(e.Key) // fragment stores base row keys as column names
		idxCell, _ := t.Get(row, r.Column)
		m := transport.IndexMatch{Row: row, IndexedCell: idxCell}
		if len(r.ReadColumns) > 0 {
			m.Cells = t.GetColumns(row, r.ReadColumns)
		}
		matches = append(matches, m)
	}
	return transport.IndexQueryResp{Matches: matches}, nil
}

// SetPlacement installs the replica-placement oracle used to filter
// anti-entropy exchanges down to rows actually shared by both peers.
func (n *Node) SetPlacement(fn func(table, row string) []transport.NodeID) {
	n.placementMu.Lock()
	n.placement = fn
	n.placementMu.Unlock()
}

// sharedWith reports whether the row is replicated on both this node
// and peer. With no placement oracle or a negative peer, everything is
// shared (unfiltered exchange).
func (n *Node) sharedWith(table, row string, peer transport.NodeID) bool {
	if peer < 0 {
		return true
	}
	n.placementMu.RLock()
	fn := n.placement
	n.placementMu.RUnlock()
	if fn == nil {
		return true
	}
	holdsSelf, holdsPeer := false, false
	for _, id := range fn(table, row) {
		if id == n.opts.ID {
			holdsSelf = true
		}
		if id == peer {
			holdsPeer = true
		}
	}
	return holdsSelf && holdsPeer
}

// sharedSnapshot returns the table entries replicated on both this
// node and peer.
func (n *Node) sharedSnapshot(table string, peer transport.NodeID) []model.Entry {
	snap := n.table(table).Snapshot()
	out := snap[:0:0]
	for _, e := range snap {
		row, _, err := model.DecodeKey(e.Key)
		if err != nil {
			continue
		}
		if n.sharedWith(table, row, peer) {
			out = append(out, e)
		}
	}
	return out
}

func (n *Node) handleDigest(r transport.DigestReq) (transport.Response, error) {
	n.acquire(kindDigest, n.opts.Service.Read)
	defer n.release()
	return transport.DigestResp{Leaves: BucketDigests(n.sharedSnapshot(r.Table, r.For), r.Buckets)}, nil
}

func (n *Node) handleBucketFetch(r transport.BucketFetchReq) (transport.Response, error) {
	n.acquire(kindBucketFetch, n.opts.Service.Read)
	defer n.release()
	var out []model.Entry
	for _, e := range n.sharedSnapshot(r.Table, r.For) {
		if BucketOf(e.Key, r.Buckets) == r.Bucket {
			out = append(out, e)
		}
	}
	return transport.BucketFetchResp{Entries: out}, nil
}

// TableSnapshot exposes a table's merged content for tests and tools.
func (n *Node) TableSnapshot(table string) []model.Entry {
	return n.table(table).Snapshot()
}

// ScanTableRows pages through a table's local row names in storage-key
// order: up to limit distinct rows after afterRow ("" = start). The
// last returned row is a resumable cursor — backfill partition scans
// ride this straight into the LSM's memtable and sstable iterators.
func (n *Node) ScanTableRows(table, afterRow string, limit int) []string {
	return n.table(table).ScanRows(afterRow, limit)
}

// DropTable discards a table's local store and, when the node is
// durable, its runs and WAL segments. The lazy table() path recreates
// an empty store if the name is written again, so dropping is safe to
// race with stray replica traffic — those writes land in fresh state.
func (n *Node) DropTable(table string) error {
	n.mu.Lock()
	delete(n.tables, table)
	delete(n.indexes, table)
	n.mu.Unlock()
	if n.opts.Durable != nil {
		return n.opts.Durable.DropTable(table)
	}
	return nil
}

// TableStats exposes engine counters for observability.
func (n *Node) TableStats(table string) lsm.Stats {
	return n.table(table).Stats()
}

// BucketOf assigns a storage key to one of buckets anti-entropy
// buckets.
func BucketOf(key []byte, buckets int) int {
	if buckets <= 0 {
		return 0
	}
	return int(ring.Hash64(string(key)) % uint64(buckets))
}

// BucketDigests folds a snapshot into per-bucket hashes. Each entry's
// contribution commutes (XOR of a per-entry hash), so the digest is
// independent of iteration order and incremental divergence shows up
// in exactly the buckets that differ.
func BucketDigests(entries []model.Entry, buckets int) []uint64 {
	if buckets <= 0 {
		buckets = 1
	}
	leaves := make([]uint64, buckets)
	for _, e := range entries {
		h := ring.Hash64(string(e.Key))
		v := h ^ ring.Hash64(string(e.Cell.Value)) ^ ring.Hash64(fmt.Sprint(e.Cell.TS, e.Cell.Tombstone))
		leaves[h%uint64(buckets)] ^= v
	}
	return leaves
}

// RestoreTable force-loads raw entries into a table's local store,
// bypassing the request path (no service-time accounting, no worker
// slot). Used when reloading a checkpoint; index fragments are kept
// consistent the same way replicated applies are.
func (n *Node) RestoreTable(table string, entries []model.Entry) error {
	for _, e := range entries {
		row, col, err := model.DecodeKey(e.Key)
		if err != nil {
			continue
		}
		lock := n.rowLock(table, row)
		lock.Lock()
		t, frags := n.lookup(table) // under the row lock, as in handlePut
		err = n.applyWithIndex(t, frags[col], row, model.ColumnUpdate{Column: col, Cell: e.Cell})
		lock.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

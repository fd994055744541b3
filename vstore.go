// Package vstore is an embedded, multi-master, eventually consistent
// keyed-record store with incrementally maintained materialized views,
// native secondary indexes, and session guarantees — a from-scratch Go
// implementation of the system described in
//
//	C. Jin, R. Liu, K. Salem.
//	"Materialized Views for Eventually Consistent Record Stores."
//	University of Waterloo TR CS-2012-26 / DMC@ICDE 2013.
//
// A DB runs an N-node cluster in process: consistent-hash placement,
// per-record replication with client-chosen read/write quorums,
// last-writer-wins cells with tombstones, read repair, hinted handoff
// and Merkle-based anti-entropy. On top of that substrate it provides
// the paper's contribution: versioned materialized views maintained
// asynchronously and decentrally by the update coordinators
// (Algorithms 1-4), plus Cassandra-style native secondary indexes as
// the comparison point, and per-client sessions with read-your-writes
// view semantics (Definition 4).
//
// # Quick start
//
//	db, _ := vstore.Open(vstore.Config{})
//	defer db.Close()
//	db.CreateTable("ticket")
//	db.CreateView(vstore.ViewDef{
//		Name: "assignedto", Base: "ticket",
//		ViewKey: "assignedto", Materialized: []string{"status"},
//	})
//	c := db.Client(0)
//	c.Put(ctx, "ticket", "1", vstore.Values{"assignedto": "rliu", "status": "open"})
//	rows, _ := c.GetView(ctx, "assignedto", "rliu")
//
// Per-call functional options tune individual requests — quorum
// overrides, column projection, request tracing:
//
//	row, _ := c.Get(ctx, "ticket", "1", vstore.WithColumns("status"), vstore.WithReadQuorum(1))
//	c.GetView(ctx, "assignedto", "rliu", vstore.WithTracing())
//	for _, td := range db.Traces() {
//		fmt.Print(td.Format()) // client.getview → coord.get → node.get per replica
//	}
//
// # Durability
//
// A zero-value Config keeps every node in memory. Handing Open a
// physical storage backend makes nodes durable — per-node write-ahead
// logs with group commit, immutable sstable runs, a propagation-intent
// log — and a later Open of the same backend recovers schema, data and
// pending view propagations. Config.Backend accepts any
// physical.Backend: FSBackend(dir) for a real directory, MemBackend()
// for a hermetic in-memory disk with a power-loss crash model
// (Config.Dir is sugar for the fs backend):
//
//	db, _ := vstore.Open(vstore.Config{Dir: "/var/lib/mvstore"})
//	db, _ = vstore.Open(vstore.Config{Backend: vstore.MemBackend()})
//
// DB.Stats groups counters by concern with latency percentiles and
// view-staleness gauges (propagation lag, pending depth, stale-chain
// lengths); Stats.Delta subtracts a previous snapshot for interval
// rates.
package vstore

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"vstore/internal/backfill"
	"vstore/internal/clock"
	"vstore/internal/cluster"
	"vstore/internal/core"
	"vstore/internal/metrics"
	"vstore/internal/model"
	"vstore/internal/node"
	"vstore/internal/physical"
	"vstore/internal/secindex"
	"vstore/internal/sstable"
	"vstore/internal/trace"
	"vstore/internal/transport"
	"vstore/internal/wal"
)

// Config describes a DB. The zero value is a 4-node cluster with
// replication factor 3 (the paper's testbed), a zero-latency in-process
// network, and quorum reads/writes.
type Config struct {
	// Nodes is the number of servers. Default 4, or on a durable store
	// the count its schema records; Open refuses any other count there,
	// since placement is shape-dependent.
	Nodes int
	// ReplicationFactor is how many copies of each record exist (the
	// paper's N). Default 3, clamped to Nodes.
	ReplicationFactor int
	// WriteQuorum (W) and ReadQuorum (R) are the defaults clients use;
	// W+R > ReplicationFactor gives read-latest. Default: majority for
	// both.
	WriteQuorum int
	ReadQuorum  int

	// Network selects the message fabric: nil means zero latency.
	Network *NetworkSim
	// Workers bounds per-node concurrent request execution
	// (0 = unbounded); combined with Service it models finite server
	// capacity for experiments.
	Workers int
	// Service sets simulated per-operation execution costs.
	Service ServiceTimes

	// Views tunes materialized-view maintenance.
	Views ViewOptions

	// Storage tunes the per-node LSM storage engines.
	Storage StorageOptions

	// AntiEntropyInterval enables background replica synchronization
	// when positive.
	AntiEntropyInterval time.Duration
	// RequestTimeout bounds coordinator fan-out rounds. Default 2s.
	RequestTimeout time.Duration
	// Backend, when non-nil, makes the store durable on the given
	// physical storage: each node keeps a write-ahead log, sstable
	// runs and a MANIFEST under the backend's node-<i> namespace, the
	// schema is persisted at the root, and Open recovers all of it —
	// including view propagations that were logged but unfinished at a
	// crash — before serving. FSBackend(dir) is the real filesystem;
	// MemBackend() an in-memory store for hermetic durability tests.
	// Nil with an empty Dir (the default) keeps everything in
	// non-durable memory, like the paper's experiments.
	Backend Backend
	// Dir is sugar for Backend: FSBackend(Dir), the store durably on
	// the filesystem under Dir. Setting both Dir and Backend is an
	// error from Open.
	Dir string
	// Durability tunes the write-ahead logs when the store is durable.
	Durability DurabilityOptions

	// Seed makes simulated components reproducible.
	Seed int64
	// Clock, when non-nil, replaces the wall clock for every timer and
	// timeout in the stack (network latencies, worker service times,
	// coordinator timeouts, propagation backoffs, anti-entropy tickers,
	// automatic write timestamps). Deterministic test harnesses supply a
	// virtual clock here.
	Clock clock.Clock
}

// ServiceTimes model the local execution cost of each operation class
// on a node, for experiments with finite server capacity. Zero values
// mean free.
type ServiceTimes struct {
	// Read is a local row/cell read.
	Read time.Duration
	// Write is a local mutation.
	Write time.Duration
	// IndexRead is a local secondary-index fragment lookup (the most
	// expensive local operation in Cassandra, since it reads the index
	// row plus the matching data rows).
	IndexRead time.Duration
	// IndexWrite is the extra cost of synchronous local index
	// maintenance during a write.
	IndexWrite time.Duration
}

// StorageOptions tunes the per-node LSM storage engines. Zero values
// keep the engine defaults.
type StorageOptions struct {
	// FlushBytes is the memtable size that triggers a flush to an
	// immutable sstable run. Default 4 MiB.
	FlushBytes int64
	// CompactAt is the run count that triggers a size-tiered
	// compaction: the newest runs of one size tier are merged, leaving
	// at most CompactAt-1 runs. Default 6.
	CompactAt int
}

// NetworkSim configures the simulated network fabric.
type NetworkSim struct {
	// Latency is the mean one-way message latency between nodes.
	Latency time.Duration
	// Jitter is the half-width of the uniform perturbation per hop.
	Jitter time.Duration
	// DropProb is the probability a message is lost.
	DropProb float64
}

// ViewOptions tunes materialized-view maintenance; see the paper's
// Section IV and the package documentation of internal/core.
type ViewOptions struct {
	// DedicatedPropagators switches from coordinator-driven
	// propagation with a lock service to a pool of dedicated
	// propagators (Section IV-F's second option).
	DedicatedPropagators bool
	// Propagators sizes the pool. Default 8.
	Propagators int
	// SynchronousMaintenance makes base Puts block until views are
	// updated (an ablation; the paper's design is asynchronous).
	SynchronousMaintenance bool
	// PathCompression flattens stale chains during traversal.
	PathCompression bool
	// PropagationDelay, when non-nil, is sampled before each
	// asynchronous propagation starts (models a busy background
	// propagation queue).
	PropagationDelay func() time.Duration
	// MaxPropagationRetry bounds propagation retries. Default 10s.
	MaxPropagationRetry time.Duration
	// MaxPendingPropagations bounds each coordinator's asynchronous
	// maintenance backlog; once full, further base-table Puts block
	// until propagations drain (backpressure). Default 256; negative
	// disables the bound.
	MaxPendingPropagations int

	// BackfillBatchSize is how many base rows an online view backfill
	// scans (and checkpoints) per page. Default 256.
	BackfillBatchSize int
	// BackfillThrottle, when positive, sleeps between backfill pages so
	// a large fill yields to foreground traffic.
	BackfillThrottle time.Duration
}

// ViewDef defines a materialized view over a base table.
type ViewDef struct {
	// Name is the view's table name; reads address it like a table.
	Name string
	// Base is the base table the view mirrors.
	Base string
	// ViewKey is the base column whose value becomes the view's key.
	ViewKey string
	// Materialized lists base columns mirrored into the view so
	// applications can avoid a second lookup into the base table.
	Materialized []string
	// Selection optionally restricts the view to rows whose view-key
	// value satisfies the predicate (relational selection).
	Selection *Selection
}

// Selection is a declarative predicate over view-key values; zero
// fields are unconstrained.
type Selection struct {
	// Prefix requires view keys to start with it.
	Prefix string
	// Min and Max bound view keys lexicographically (inclusive).
	Min, Max string
}

// JoinViewDef defines an equi-join view: rows of two base tables that
// share a join-column value co-materialize under that value in one
// view table (the PNUTS-style extension the paper sketches). Reading
// the view by join key returns the matching rows of both sides, each
// tagged with its Table; the application pairs them.
type JoinViewDef struct {
	// Name is the join view's table name.
	Name string
	// Left and Right are the joined sides.
	Left, Right JoinSide
}

// JoinSide describes one base table's participation in a join view.
type JoinSide struct {
	// Base is the base table.
	Base string
	// On is the base column whose value is the join key.
	On string
	// Materialized lists this side's mirrored columns.
	Materialized []string
	// Selection optionally restricts this side.
	Selection *Selection
}

// DB is an embedded cluster with view, index and session support.
type DB struct {
	cfg      Config
	cluster  *cluster.Cluster
	registry *core.Registry
	managers []*core.Manager
	queriers []*secindex.Querier
	clock    *clock.Source

	// now samples the configured clock for latency measurement.
	now    func() time.Time
	lat    *metrics.LatencySet
	tracer *trace.Tracer

	// backend is the resolved physical storage (nil in memory mode);
	// recovery what a durable Open restored.
	backend  physical.Backend
	recovery RecoveryStats

	// bf owns every view's lifecycle (Backfilling → Live) and the
	// online-backfill scanners.
	bf *backfill.Controller
	// schemaMu serializes SCHEMA.json rewrites: DropView and the
	// backfill controller's OnLive callback persist concurrently, and
	// an older snapshot must not overwrite a newer one.
	schemaMu sync.Mutex
	// dropMu guards pendingDrops: view names whose storage teardown is
	// in flight, persisted so a crash mid-drop re-executes the drop
	// instead of resurrecting old view rows.
	dropMu       sync.Mutex
	pendingDrops []string
}

// Open builds and starts a DB. With Config.Backend (or its Dir sugar)
// set it first recovers every node's durable state — sstable runs, WAL
// tails, and pending view-propagation intents, which are re-enqueued
// so views converge even across a crash; RecoveryStats reports what
// was restored. Opening a checkpoint written by SaveSnapshotTo is the
// same durable Open.
func Open(cfg Config) (*DB, error) {
	if cfg.Nodes < 0 || cfg.ReplicationFactor < 0 {
		return nil, fmt.Errorf("vstore: negative cluster sizes")
	}
	backend := cfg.Backend
	if cfg.Dir != "" {
		if backend != nil {
			return nil, fmt.Errorf("vstore: set Config.Backend or Config.Dir, not both")
		}
		backend = FSBackend(cfg.Dir)
	}
	start := clock.Or(cfg.Clock).Now()
	var schema *schemaDoc
	if backend != nil {
		var err error
		if schema, err = readSchema(backend); err != nil {
			return nil, err
		}
		if schema != nil && schema.Nodes != 0 {
			if cfg.Nodes == 0 {
				cfg.Nodes = schema.Nodes
			}
			if cfg.Nodes != schema.Nodes {
				return nil, fmt.Errorf("vstore: store has %d nodes, config wants %d (placement is shape-dependent)", schema.Nodes, cfg.Nodes)
			}
		}
	}
	var trans transport.Transport
	if cfg.Network != nil {
		trans = transport.NewSim(transport.SimOptions{
			Latency:  cfg.Network.Latency,
			Jitter:   cfg.Network.Jitter,
			DropProb: cfg.Network.DropProb,
			Seed:     cfg.Seed,
			Clock:    cfg.Clock,
		})
	}
	lat := metrics.NewLatencySet()
	var walOpts wal.Options
	if backend != nil {
		walOpts = wal.Options{
			SegmentBytes: cfg.Durability.SegmentBytes,
			Policy:       cfg.Durability.Fsync.wal(),
			Interval:     cfg.Durability.FsyncInterval,
			Clock:        cfg.Clock,
			Metrics:      lat,
		}
	}
	cl, err := cluster.Open(cluster.Config{
		Nodes:     cfg.Nodes,
		N:         cfg.ReplicationFactor,
		Transport: trans,
		Workers:   cfg.Workers,
		Service: node.ServiceTimes{
			Read:       cfg.Service.Read,
			Write:      cfg.Service.Write,
			IndexRead:  cfg.Service.IndexRead,
			IndexWrite: cfg.Service.IndexWrite,
		},
		RequestTimeout:      cfg.RequestTimeout,
		AntiEntropyInterval: cfg.AntiEntropyInterval,
		FlushBytes:          cfg.Storage.FlushBytes,
		CompactAt:           cfg.Storage.CompactAt,
		Seed:                cfg.Seed,
		Clock:               cfg.Clock,
		Backend:             backend,
		Durability:          walOpts,
	})
	if err != nil {
		return nil, err
	}
	mode := core.ModeLocks
	if cfg.Views.DedicatedPropagators {
		mode = core.ModePropagators
	}
	reg := core.NewRegistry(core.Options{
		Mode:                   mode,
		Propagators:            cfg.Views.Propagators,
		SyncPropagation:        cfg.Views.SynchronousMaintenance,
		PathCompression:        cfg.Views.PathCompression,
		PropagationDelay:       cfg.Views.PropagationDelay,
		MaxPropagationRetry:    cfg.Views.MaxPropagationRetry,
		MaxPendingPropagations: cfg.Views.MaxPendingPropagations,
		Clock:                  cfg.Clock,
	})
	var now func() time.Time
	if cfg.Clock != nil {
		now = cfg.Clock.Now
	}
	nowFn := now
	if nowFn == nil {
		nowFn = clock.Wall.Now
	}
	db := &DB{
		cfg:      cfg,
		cluster:  cl,
		registry: reg,
		clock:    clock.NewSource(now),
		now:      nowFn,
		lat:      lat,
		tracer:   trace.New(nowFn, 64),
		backend:  backend,
	}
	if db.cfg.WriteQuorum <= 0 {
		db.cfg.WriteQuorum = cl.N()/2 + 1
	}
	if db.cfg.ReadQuorum <= 0 {
		db.cfg.ReadQuorum = cl.N()/2 + 1
	}
	for i := 0; i < cl.Size(); i++ {
		co := cl.Coordinator(i)
		db.managers = append(db.managers, core.NewManager(reg, co))
		db.queriers = append(db.queriers, secindex.New(co.Self(), cl.Trans, cl.Ring.Nodes, secindex.Options{
			RequestTimeout: cfg.RequestTimeout,
			Clock:          cfg.Clock,
		}))
	}
	var bfStore backfill.Store
	if backend != nil {
		bfStore = backfill.NewPhysicalStore(backend)
	}
	db.bf = backfill.New(cl.Coordinator(0), backfill.Options{
		Store:     bfStore,
		Clock:     cfg.Clock,
		BatchSize: cfg.Views.BackfillBatchSize,
		Throttle:  cfg.Views.BackfillThrottle,
		// Persist the Backfilling → Live transition. Failure (or a crash
		// before it lands) leaves the view Backfilling on disk; the next
		// Open resumes a scan whose checkpoint is already Done
		// everywhere — an instant no-op.
		OnLive: func(view string) {
			db.registry.SetBackfilling(view, false)
			_ = db.persistSchema()
		},
	})
	if backend != nil {
		if err := db.recoverDurable(start, schema); err != nil {
			db.Close()
			return nil, err
		}
	}
	return db, nil
}

// Close drains in-flight view propagations (bounded by a short wall
// timeout), stops all background activity, and finally syncs and
// closes every node's write-ahead log, so a clean shutdown leaves no
// pending intents and loses nothing even under FsyncOff.
func (db *DB) Close() {
	// Stop backfill scanners first: they drive propagations through the
	// managers and coordinators shut down below. Checkpoints stay in
	// place so a durable reopen resumes mid-scan.
	db.bf.Close()
	if db.registry.Pending() > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), closeDrainTimeout)
		db.QuiesceViews(ctx) //nolint:errcheck // best-effort drain; intents stay logged
		cancel()
	}
	// Closes every manager (core.Manager.Close), ending what the bounded
	// drain left: in-flight propagations are cancelled — their intents
	// stay logged, unmarked — and have ended when this returns, so nothing
	// appends to the logs cluster.Close closes next.
	db.registry.Close()
	db.cluster.Close()
}

// closeDrainTimeout bounds Close's propagation drain. Undrained work
// is not lost in durable mode — its intents stay in the WAL and the
// next Open re-enqueues them.
const closeDrainTimeout = 2 * time.Second

// Nodes returns the cluster size.
func (db *DB) Nodes() int { return db.cluster.Size() }

// ReplicationFactor returns the per-record copy count (N).
func (db *DB) ReplicationFactor() int { return db.cluster.N() }

// CreateTable registers a base table.
func (db *DB) CreateTable(name string) error {
	if db.registry.IsView(name) {
		return fmt.Errorf("vstore: %q already names a view", name)
	}
	if err := db.cluster.CreateTable(name); err != nil {
		return err
	}
	return db.persistSchema()
}

// CreateView defines a materialized view, backfills it online from the
// base table's current contents, and waits for the view to go Live.
// Live writes are never blocked: the backfill races them through the
// regular propagation machinery, and a backfill write that loses a
// race becomes a stale-chain insert below the live row. The view is
// then maintained incrementally and asynchronously on every relevant
// base update. Use CreateViewAsync to return without waiting.
func (db *DB) CreateView(def ViewDef) error {
	if err := db.CreateViewAsync(def); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), backfillWaitTimeout)
	defer cancel()
	return db.WaitViewLive(ctx, def.Name)
}

// CreateViewAsync is CreateView without the wait: the view is defined,
// immediately maintained for new writes, and backfilled in the
// background. Until WaitViewLive returns (or ViewState reports Live)
// reads may miss rows that predate the definition.
func (db *DB) CreateViewAsync(def ViewDef) error {
	if !db.cluster.HasTable(def.Base) {
		return fmt.Errorf("vstore: unknown base table %q", def.Base)
	}
	if db.cluster.HasTable(def.Name) {
		return fmt.Errorf("vstore: table %q already exists", def.Name)
	}
	cdef := toCoreDef(def)
	if err := cdef.Validate(); err != nil {
		return err
	}
	if err := db.cluster.CreateTable(def.Name); err != nil {
		return err
	}
	if err := db.registry.Define(cdef); err != nil {
		return err
	}
	if err := db.startBackfill(def.Name); err != nil {
		return err
	}
	// Persisted after the controller starts so SCHEMA.json records the
	// view as Backfilling; a crash anywhere after this resumes the scan.
	return db.persistSchema()
}

// CreateJoinView defines an equi-join view over two base tables,
// backfills it online from both sides' current contents, and waits for
// it to go Live.
func (db *DB) CreateJoinView(def JoinViewDef) error {
	if err := db.CreateJoinViewAsync(def); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), backfillWaitTimeout)
	defer cancel()
	return db.WaitViewLive(ctx, def.Name)
}

// CreateJoinViewAsync is CreateJoinView without the wait.
func (db *DB) CreateJoinViewAsync(def JoinViewDef) error {
	for _, side := range []JoinSide{def.Left, def.Right} {
		if !db.cluster.HasTable(side.Base) {
			return fmt.Errorf("vstore: unknown base table %q", side.Base)
		}
	}
	if db.cluster.HasTable(def.Name) {
		return fmt.Errorf("vstore: table %q already exists", def.Name)
	}
	if err := db.cluster.CreateTable(def.Name); err != nil {
		return err
	}
	if err := db.registry.DefineJoin(toCoreJoin(def)); err != nil {
		return err
	}
	if err := db.startBackfill(def.Name); err != nil {
		return err
	}
	return db.persistSchema()
}

// backfillWaitTimeout bounds the synchronous CreateView/CreateJoinView
// wait for the online backfill to finish. Generous: a million-key base
// table takes minutes to scan-and-fill, and callers who want a tighter
// bound (or progress reporting) use CreateViewAsync + WaitViewLive
// with their own context.
const backfillWaitTimeout = 30 * time.Minute

// startBackfill launches (or, on a durable reopen, resumes) the online
// backfill for a view: one partition per (base table, node), scanned
// node-by-node over the stored row order while live writes keep
// flowing.
func (db *DB) startBackfill(view string) error {
	parts, err := db.backfillPartitions(view)
	if err != nil {
		return err
	}
	// Until the scan is through, live propagations into the view cannot
	// trust their pre-images to name rows it has (see core.Task).
	db.registry.SetBackfilling(view, true)
	return db.bf.Start(view, db.now().UnixMicro(), parts, db.backfillFiller(view))
}

// backfillPartitions lists the scan shards that cover every base row
// of a view: one per (base table, node).
func (db *DB) backfillPartitions(view string) ([]backfill.Partition, error) {
	defs := db.registry.Defs(view)
	if len(defs) == 0 {
		return nil, fmt.Errorf("vstore: unknown view %q", view)
	}
	var parts []backfill.Partition
	seen := map[string]bool{}
	for _, d := range defs {
		if seen[d.Base] {
			continue // self-join: one scan of the shared base fills both sides
		}
		seen[d.Base] = true
		for i, n := range db.cluster.Nodes {
			base, n := d.Base, n
			parts = append(parts, backfill.Partition{
				Base: base,
				Node: i,
				Scan: func(after string, limit int) []string {
					return n.ScanTableRows(base, after, limit)
				},
			})
		}
	}
	return parts, nil
}

// backfillFiller returns the per-key fill function: Manager.BackfillRow
// on a coordinator picked by row hash, so fills spread across the
// cluster. A fill quorum-merges the base row and pushes it through the
// regular propagation machinery targeted at this view, so duplicate
// fills and races with live writes serialize per base key and converge
// by LWW; cells keep their original base timestamps, so a backfill
// write racing a newer live write lands strictly below it in the chain.
func (db *DB) backfillFiller(view string) backfill.Filler {
	return func(ctx context.Context, base, row string) error {
		h := fnv.New32a()
		_, _ = h.Write([]byte(row))
		return db.managers[int(h.Sum32())%len(db.managers)].BackfillRow(ctx, view, base, row)
	}
}

// WaitViewLive blocks until the named view's online backfill completes
// (state Live), its backfill fails, or the context expires.
func (db *DB) WaitViewLive(ctx context.Context, view string) error {
	return db.bf.Wait(ctx, view)
}

// View lifecycle states, as reported by ViewState and Stats.
const (
	// ViewBackfilling: the view is maintained for new writes but the
	// scan of pre-existing base rows is still running.
	ViewBackfilling = string(backfill.StateBackfilling)
	// ViewLive: the backfill completed; the view is complete up to
	// normal propagation staleness.
	ViewLive = string(backfill.StateLive)
)

// ViewState reports a view's lifecycle state (ViewBackfilling or
// ViewLive).
func (db *DB) ViewState(name string) (string, error) {
	if st, ok := db.bf.State(name); ok {
		return string(st), nil
	}
	if db.registry.IsView(name) {
		return ViewLive, nil
	}
	return "", fmt.Errorf("vstore: unknown view %q", name)
}

// Stats aggregates counters, latency percentiles and staleness gauges
// across the cluster, grouped by concern. Latency percentiles are in
// microseconds, each its histogram bucket's upper edge: never below the
// true value and at most 1/16 above it (metrics.AtomicHist); counter
// fields are cumulative since Open. Use Delta to report over an
// interval.
type Stats struct {
	Reads   ReadStats    `json:"reads"`
	Writes  WriteStats   `json:"writes"`
	Views   ViewStats    `json:"views"`
	Storage StorageStats `json:"storage"`
}

// ReadStats covers the base-table and index read paths.
type ReadStats struct {
	// Gets counts coordinator read rounds (base tables and internal
	// view reads alike).
	Gets int64 `json:"gets"`
	// DigestReads counts quorum reads served by the digest fast path;
	// DigestMismatches the digest comparisons that found divergent
	// replicas (each triggers a full-read fallback or targeted repair).
	DigestReads      int64 `json:"digest_reads"`
	DigestMismatches int64 `json:"digest_mismatches"`
	// MultiGets counts batched row-read rounds issued by coordinators;
	// MultiGetRows the rows they carried.
	MultiGets    int64 `json:"multi_gets"`
	MultiGetRows int64 `json:"multi_get_rows"`
	ReadRepairs  int64 `json:"read_repairs"`
	// Latency is client-observed Get/GetRow latency; IndexLatency the
	// same for QueryIndex.
	Latency      metrics.HistSnapshot `json:"latency_us"`
	IndexLatency metrics.HistSnapshot `json:"index_latency_us"`
}

// WriteStats covers the base-table write path.
type WriteStats struct {
	Puts          int64 `json:"puts"`
	QuorumFails   int64 `json:"quorum_fails"`
	HintsStored   int64 `json:"hints_stored"`
	HintsReplayed int64 `json:"hints_replayed"`
	// Latency is client-observed Put latency (quorum ack, not
	// propagation).
	Latency metrics.HistSnapshot `json:"latency_us"`
}

// ViewStats covers materialized-view maintenance and reads — including
// the live staleness gauges: propagation lag percentiles, current
// pending depth, and the age of the oldest in-flight propagation (an
// upper bound on how stale any view currently is).
type ViewStats struct {
	Propagations        int64 `json:"propagations"`
	PropagationFailures int64 `json:"propagation_failures"`
	PropagationsDropped int64 `json:"propagations_dropped"`
	NoOps               int64 `json:"noops"`
	Reads               int64 `json:"reads"`
	ReadSpins           int64 `json:"read_spins"`
	ChainHops           int64 `json:"chain_hops"`
	// ChainHopsSaved counts chain-walk reads served from a batched
	// prefetch instead of a dedicated quorum round trip;
	// BatchedLookups the prefetch rounds that produced them.
	ChainHopsSaved int64 `json:"chain_hops_saved"`
	BatchedLookups int64 `json:"batched_lookups"`
	LiveKeyLookups int64 `json:"live_key_lookups"`
	// Compressions counts stale pointers rewritten by path compression.
	// GhostDetours counts chain walks that ended at a row an interrupted
	// promotion created but never published and detoured through its
	// recorded origin; HelpedPublishes the ready markers then published
	// on that promotion's behalf.
	Compressions    int64 `json:"compressions"`
	GhostDetours    int64 `json:"ghost_detours"`
	HelpedPublishes int64 `json:"helped_publishes"`
	// HandOffs counts failed propagation attempts that waited for an
	// in-flight predecessor of the same row — whose view-key write a
	// guess names — rather than polling on a back-off: a hot row being
	// handed from one propagation to the next, not polled for.
	HandOffs int64 `json:"hand_offs"`
	// BaseReads counts the base-row quorum reads a promotion's CopyData
	// made: one for each row entering the view, each promotion out of a
	// row outside the view's selection and each anchored task's
	// promotion (replay, late task, backfill fill). A promotion that
	// supersedes a selected live row copies from that row and reads none.
	BaseReads int64 `json:"base_reads"`

	// Pending is the number of in-flight propagations right now;
	// OldestPendingLag how long the oldest has been outstanding.
	Pending          int           `json:"pending"`
	OldestPendingLag time.Duration `json:"oldest_pending_lag_ns"`
	// PropagationLag is end-to-end propagation latency (Put enqueue to
	// view rows applied) in microseconds; PerViewLag the same broken
	// out by view.
	PropagationLag metrics.HistSnapshot            `json:"propagation_lag_us"`
	PerViewLag     map[string]metrics.HistSnapshot `json:"per_view_lag_us,omitempty"`
	// ChainLength is the distribution of view rows visited per
	// GetLiveKey chain walk (1 = guessed key was live).
	ChainLength metrics.HistSnapshot `json:"chain_length"`
	// ReadLatency is client-observed GetView latency excluding session
	// waits; SessionWait the Definition-4 wait time, attributed
	// separately.
	ReadLatency metrics.HistSnapshot `json:"read_latency_us"`
	SessionWait metrics.HistSnapshot `json:"session_wait_us"`

	// Lifecycle reports each view's state (backfilling or live) and,
	// while backfilling, the scan's progress.
	Lifecycle map[string]ViewLifecycle `json:"lifecycle,omitempty"`
}

// ViewLifecycle is one view's lifecycle state and backfill progress.
type ViewLifecycle struct {
	// State is ViewBackfilling or ViewLive.
	State string `json:"state"`
	// BackfillScanned counts base rows the online backfill has filled.
	BackfillScanned int64 `json:"backfill_scanned,omitempty"`
	// Partitions and PartitionsDone track the (base, node) scan shards;
	// the view goes Live when every partition is done.
	Partitions     int `json:"partitions,omitempty"`
	PartitionsDone int `json:"partitions_done,omitempty"`
	// Resumed reports the scan continued from a crash-persisted
	// checkpoint.
	Resumed bool `json:"resumed,omitempty"`
}

// StorageStats covers the per-node LSM engines and, in durable mode,
// the write-ahead logs.
type StorageStats struct {
	// RunsPruned counts sstable runs skipped by bloom filters or key
	// bounds across all tables and nodes (point and row reads).
	RunsPruned int64 `json:"runs_pruned"`
	// WALAppend and WALSync are write-ahead-log append and fsync
	// latencies across all nodes (empty in memory mode).
	WALAppend metrics.HistSnapshot `json:"wal_append_us"`
	WALSync   metrics.HistSnapshot `json:"wal_sync_us"`
	// RecoveryTime is how long the durable Open's recovery pass took —
	// a gauge, fixed at Open (zero in memory mode).
	RecoveryTime time.Duration `json:"recovery_time_ns"`
}

// Stats returns a cluster-wide snapshot of internal counters.
func (db *DB) Stats() Stats {
	var s Stats
	for _, m := range db.managers {
		ms := m.Stats()
		s.Views.Propagations += ms.Propagations.Load()
		s.Views.PropagationFailures += ms.FailedAttempts.Load()
		s.Views.PropagationsDropped += ms.Abandoned.Load()
		s.Views.HandOffs += ms.HandOffs.Load()
		s.Views.BaseReads += ms.BaseReads.Load()
		s.Views.NoOps += ms.NoOps.Load()
		s.Views.ChainHops += ms.ChainHops.Load()
		s.Views.Reads += ms.ViewReads.Load()
		s.Views.ReadSpins += ms.ReadSpins.Load()
		s.Views.ChainHopsSaved += ms.ChainHopsSaved.Load()
		s.Views.BatchedLookups += ms.BatchedLookups.Load()
		s.Views.LiveKeyLookups += ms.LiveKeyLookups.Load()
		s.Views.Compressions += ms.Compressions.Load()
		s.Views.GhostDetours += ms.GhostDetours.Load()
		s.Views.HelpedPublishes += ms.HelpedPublishes.Load()
	}
	s.Views.Pending = db.registry.Pending()
	obs := db.registry.Obs()
	s.Views.OldestPendingLag = db.registry.OldestPendingAge(db.now())
	s.Views.PropagationLag = obs.Lag.Snapshot()
	s.Views.PerViewLag = obs.PerViewLag()
	s.Views.ChainLength = obs.ChainLen.Snapshot()
	s.Views.ReadLatency = db.lat.Snapshot(metrics.OpViewRead)
	s.Views.SessionWait = db.lat.Snapshot(metrics.OpSessionWait)
	if prog := db.bf.Progress(); len(prog) > 0 {
		s.Views.Lifecycle = make(map[string]ViewLifecycle, len(prog))
		for name, p := range prog {
			s.Views.Lifecycle[name] = ViewLifecycle{
				State:           string(p.State),
				BackfillScanned: p.Scanned,
				Partitions:      p.Partitions,
				PartitionsDone:  p.PartitionsDone,
				Resumed:         p.Resumed,
			}
		}
	}
	for i := 0; i < db.cluster.Size(); i++ {
		cs := db.cluster.Coordinator(i).Stats()
		s.Reads.Gets += cs.Gets
		s.Reads.ReadRepairs += cs.ReadRepairs
		s.Reads.DigestReads += cs.DigestReads
		s.Reads.DigestMismatches += cs.DigestMismatches
		s.Reads.MultiGets += cs.MultiGets
		s.Reads.MultiGetRows += cs.MultiGetRows
		s.Writes.Puts += cs.Puts
		s.Writes.QuorumFails += cs.QuorumFails
		s.Writes.HintsStored += cs.HintsStored
		s.Writes.HintsReplayed += cs.HintsReplayed
	}
	s.Reads.Latency = db.lat.Snapshot(metrics.OpRead)
	s.Reads.IndexLatency = db.lat.Snapshot(metrics.OpIndexRead)
	s.Writes.Latency = db.lat.Snapshot(metrics.OpWrite)
	for _, table := range db.cluster.Tables() {
		for _, n := range db.cluster.Nodes {
			ls := n.TableStats(table)
			s.Storage.RunsPruned += ls.RunsPrunedPoint + ls.RunsPrunedRow
		}
	}
	s.Storage.WALAppend = db.lat.Snapshot(metrics.OpWALAppend)
	s.Storage.WALSync = db.lat.Snapshot(metrics.OpWALSync)
	s.Storage.RecoveryTime = db.recovery.Duration
	return s
}

// Delta returns s - prev for all cumulative counters, so tools can
// report rates over an interval. Gauges (Pending, OldestPendingLag)
// and histogram percentiles keep s's current values; histogram Count
// and Sum are differenced.
func (s Stats) Delta(prev Stats) Stats {
	d := s
	d.Reads.Gets -= prev.Reads.Gets
	d.Reads.DigestReads -= prev.Reads.DigestReads
	d.Reads.DigestMismatches -= prev.Reads.DigestMismatches
	d.Reads.MultiGets -= prev.Reads.MultiGets
	d.Reads.MultiGetRows -= prev.Reads.MultiGetRows
	d.Reads.ReadRepairs -= prev.Reads.ReadRepairs
	d.Reads.Latency = s.Reads.Latency.Sub(prev.Reads.Latency)
	d.Reads.IndexLatency = s.Reads.IndexLatency.Sub(prev.Reads.IndexLatency)
	d.Writes.Puts -= prev.Writes.Puts
	d.Writes.QuorumFails -= prev.Writes.QuorumFails
	d.Writes.HintsStored -= prev.Writes.HintsStored
	d.Writes.HintsReplayed -= prev.Writes.HintsReplayed
	d.Writes.Latency = s.Writes.Latency.Sub(prev.Writes.Latency)
	d.Views.Propagations -= prev.Views.Propagations
	d.Views.PropagationFailures -= prev.Views.PropagationFailures
	d.Views.PropagationsDropped -= prev.Views.PropagationsDropped
	d.Views.HandOffs -= prev.Views.HandOffs
	d.Views.BaseReads -= prev.Views.BaseReads
	d.Views.NoOps -= prev.Views.NoOps
	d.Views.Reads -= prev.Views.Reads
	d.Views.ReadSpins -= prev.Views.ReadSpins
	d.Views.ChainHops -= prev.Views.ChainHops
	d.Views.ChainHopsSaved -= prev.Views.ChainHopsSaved
	d.Views.BatchedLookups -= prev.Views.BatchedLookups
	d.Views.LiveKeyLookups -= prev.Views.LiveKeyLookups
	d.Views.Compressions -= prev.Views.Compressions
	d.Views.GhostDetours -= prev.Views.GhostDetours
	d.Views.HelpedPublishes -= prev.Views.HelpedPublishes
	d.Views.PropagationLag = s.Views.PropagationLag.Sub(prev.Views.PropagationLag)
	d.Views.ChainLength = s.Views.ChainLength.Sub(prev.Views.ChainLength)
	d.Views.ReadLatency = s.Views.ReadLatency.Sub(prev.Views.ReadLatency)
	d.Views.SessionWait = s.Views.SessionWait.Sub(prev.Views.SessionWait)
	d.Storage.RunsPruned -= prev.Storage.RunsPruned
	d.Storage.WALAppend = s.Storage.WALAppend.Sub(prev.Storage.WALAppend)
	d.Storage.WALSync = s.Storage.WALSync.Sub(prev.Storage.WALSync)
	return d
}

// Traces returns the most recent completed traced operations, newest
// first: the span trees recorded by calls made with WithTracing,
// including linked propagation roots.
func (db *DB) Traces() []trace.SpanData { return db.tracer.Traces() }

// TableStorageStats describes one node's LSM engine state for a table.
type TableStorageStats struct {
	MemtableCells int
	Segments      int
	Flushes       int
	Compactions   int
	// FlushedBytes and CompactedBytes sum the payload of the sstable
	// runs the table's flushes and compactions wrote; their sum over
	// FlushedBytes is the engine's write amplification.
	FlushedBytes   int64
	CompactedBytes int64
	// RunsPrunedPoint and RunsPrunedRow count sstable runs skipped by
	// the table's bloom filters or key bounds for point and row reads;
	// a point read also skips a run whose newest cell is older than the
	// cell it already holds.
	RunsPrunedPoint int64
	RunsPrunedRow   int64
}

// TableStats returns per-node storage-engine statistics for a table,
// indexed by node.
func (db *DB) TableStats(table string) []TableStorageStats {
	out := make([]TableStorageStats, 0, db.cluster.Size())
	for _, n := range db.cluster.Nodes {
		ls := n.TableStats(table)
		out = append(out, TableStorageStats{
			MemtableCells:   ls.MemtableCells,
			Segments:        ls.Segments,
			Flushes:         ls.Flushes,
			Compactions:     ls.Compactions,
			FlushedBytes:    ls.FlushedBytes,
			CompactedBytes:  ls.CompactedBytes,
			RunsPrunedPoint: ls.RunsPrunedPoint,
			RunsPrunedRow:   ls.RunsPrunedRow,
		})
	}
	return out
}

// QuiesceViews waits until every in-flight view propagation has
// completed — useful in tests and batch jobs that need the views
// caught up.
func (db *DB) QuiesceViews(ctx context.Context) error {
	for _, m := range db.managers {
		if err := m.Quiesce(ctx); err != nil {
			return err
		}
	}
	return nil
}

// RunAntiEntropy synchronously runs one full anti-entropy round.
func (db *DB) RunAntiEntropy() { db.cluster.RunAntiEntropyRound() }

// SetNodeDown injects (true) or heals (false) a node failure.
func (db *DB) SetNodeDown(nodeIndex int, down bool) {
	db.cluster.SetNodeDown(transport.NodeID(nodeIndex), down)
}

// CreateIndex declares a Cassandra-style native secondary index on a
// base-table column: per-node fragments co-located with the data,
// maintained synchronously with local writes, queried by broadcasting
// to every node.
func (db *DB) CreateIndex(table, column string) error {
	if db.registry.IsView(table) {
		return fmt.Errorf("vstore: cannot index view %q", table)
	}
	if err := db.cluster.CreateIndex(table, column); err != nil {
		return err
	}
	return db.persistSchema()
}

// DropView removes a view: its backfill (if still running) is
// cancelled, maintenance stops, and its storage — in-memory stores
// and, in durable mode, manifest entries, run files and WAL segments —
// is discarded on every node, so the name can be re-created with a
// different definition. The teardown is crash-safe: the drop is
// recorded in SCHEMA.json before storage is touched and re-executed on
// the next Open if interrupted, so a crash mid-drop can never
// resurrect old view rows into a re-created view.
func (db *DB) DropView(name string) error {
	if err := db.registry.Drop(name); err != nil {
		return err
	}
	db.bf.Drop(name)
	db.dropMu.Lock()
	db.pendingDrops = append(db.pendingDrops, name)
	db.dropMu.Unlock()
	if err := db.persistSchema(); err != nil {
		return err
	}
	if err := db.cluster.DropTable(name); err != nil {
		// The pending drop stays recorded; the next Open finishes it.
		return err
	}
	db.dropMu.Lock()
	drops := db.pendingDrops[:0]
	for _, d := range db.pendingDrops {
		if d != name {
			drops = append(drops, d)
		}
	}
	db.pendingDrops = drops
	db.dropMu.Unlock()
	return db.persistSchema()
}

// Views lists the defined view names.
func (db *DB) Views() []string { return db.registry.ViewNames() }

// viewState collects a view's definitions and its merged storage from
// every node.
func (db *DB) viewState(name string) ([]*core.Def, []model.Entry, error) {
	defs := db.registry.Defs(name)
	if len(defs) == 0 {
		return nil, nil, fmt.Errorf("vstore: unknown view %q", name)
	}
	runs := make([][]model.Entry, 0, db.cluster.Size())
	for _, n := range db.cluster.Nodes {
		runs = append(runs, n.TableSnapshot(name))
	}
	return defs, sstable.MergeRuns(runs, false), nil
}

// PruneView removes stale versioning rows that were superseded more
// than olderThan ago, bounding the chain growth of hot rows. Only call
// it when no propagation of an update older than the horizon can still
// be in flight (e.g. olderThan well above ViewOptions'
// MaxPropagationRetry); see internal/core.Prune for the full contract.
// It returns the number of stale rows removed.
//
// PruneView assumes automatic (wall-clock microsecond) timestamps; if
// the application supplies its own timestamp scale, use PruneViewBefore.
func (db *DB) PruneView(ctx context.Context, view string, olderThan time.Duration) (int, error) {
	return db.PruneViewBefore(ctx, view, db.now().Add(-olderThan).UnixMicro())
}

// PruneViewBefore is PruneView with an explicit timestamp horizon.
func (db *DB) PruneViewBefore(ctx context.Context, view string, horizonTS int64) (int, error) {
	defs, entries, err := db.viewState(view)
	if err != nil {
		return 0, err
	}
	// Prune operates on the shared view table; one pass covers every
	// side of a join view.
	return core.Prune(ctx, db.cluster.Coordinator(0), defs[0], entries, horizonTS, db.cfg.WriteQuorum)
}

// RebuildView re-derives an existing view from its base tables,
// repairing rows lost to abandoned propagations or operator surgery. It
// is CreateView's online backfill run over a view that already exists:
// every base key is quorum-read and pushed through the regular
// propagation protocol (row lock, chain walk, redo-safe promotion), so
// it serializes with live writes to the same key and, because cells
// keep their base-table timestamps, never regresses newer data. The
// view stays Live and readable throughout.
func (db *DB) RebuildView(ctx context.Context, view string) error {
	parts, err := db.backfillPartitions(view)
	if err != nil {
		return err
	}
	return db.bf.Sweep(ctx, parts, db.backfillFiller(view))
}

// Tables lists all registered tables (bases and views).
func (db *DB) Tables() []string { return db.cluster.Tables() }

// ViewDiagnostics reports a view's versioning health: live/stale row
// counts, chain-length statistics and the oldest supersession
// timestamp — the inputs to a PruneView scheduling decision.
type ViewDiagnostics struct {
	LiveRows       int
	StaleRows      int
	DeletedRows    int
	MaxChainLength int
	MeanChainHops  float64
	// OldestStaleAge is how long ago the oldest stale row was
	// superseded (assuming wall-clock microsecond timestamps); zero
	// when there are no stale rows.
	OldestStaleAge time.Duration
}

// DiagnoseView computes ViewDiagnostics from the view's current merged
// storage.
func (db *DB) DiagnoseView(view string) (ViewDiagnostics, error) {
	_, entries, err := db.viewState(view)
	if err != nil {
		return ViewDiagnostics{}, err
	}
	d, err := core.Diagnose(entries)
	if err != nil {
		return ViewDiagnostics{}, err
	}
	out := ViewDiagnostics{
		LiveRows:       d.LiveRows,
		StaleRows:      d.StaleRows,
		DeletedRows:    d.DeletedRows,
		MaxChainLength: d.MaxChainLength,
	}
	if d.StaleRows > 0 {
		out.MeanChainHops = float64(d.TotalChainHops) / float64(d.StaleRows)
		if age := db.now().UnixMicro() - d.OldestStaleTS; age > 0 {
			out.OldestStaleAge = time.Duration(age) * time.Microsecond
		}
	}
	return out, nil
}

package vstore

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"vstore/internal/backfill"
	"vstore/internal/cluster"
	"vstore/internal/core"
	"vstore/internal/physical"
	physfs "vstore/internal/physical/fs"
	physmem "vstore/internal/physical/mem"
	"vstore/internal/sstable"
	"vstore/internal/transport"
	"vstore/internal/wal"
)

// This file is the durable face of the DB: the public storage backend
// and fsync knobs, the SCHEMA.json file that makes table/view/index
// definitions survive a restart, checkpoints written in that same
// layout, and the recovery pass that finishes what a crashed process
// left pending (each node's wal.Storage is its manager's
// propagation-intent log). The per-node mechanics (segmented WALs, run
// files, MANIFESTs) live in internal/wal over internal/physical; node
// state is rebuilt by cluster.Open before any code here runs.

// Backend is the physical storage a durable DB runs on: a narrow
// interface (exclusive create, append, fsync, whole-file read, atomic
// replace, list, remove) every byte of durable state goes through. See
// internal/physical for the exact contract implementations must keep.
type Backend = physical.Backend

// FSBackend returns a Backend on the real filesystem rooted at dir —
// exactly what Config.Dir constructs. The on-disk layout matches what
// pre-backend versions of this package wrote, so existing directories
// reopen unchanged.
func FSBackend(dir string) Backend { return physfs.New(dir) }

// MemBackend returns a hermetic in-memory Backend: the full durable
// machinery — WALs, sstable runs, recovery — without touching a disk.
// State lives exactly as long as the value, so "reopening" a store
// means passing the same Backend to Open again; tests use this to
// exercise crash recovery deterministically.
func MemBackend() Backend { return physmem.New() }

// FsyncPolicy selects how aggressively durable writes reach disk.
type FsyncPolicy int

const (
	// FsyncInterval (the default) fsyncs WALs on a background ticker;
	// a crash can lose up to one interval of acknowledged writes, but
	// the log is always prefix-consistent.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways fsyncs before every write acknowledges, amortized by
	// group commit: concurrent writers share one fsync.
	FsyncAlways
	// FsyncOff never fsyncs during operation; the OS still writes
	// pages back, and clean shutdown syncs everything.
	FsyncOff
)

func (p FsyncPolicy) wal() wal.SyncPolicy {
	switch p {
	case FsyncAlways:
		return wal.SyncAlways
	case FsyncOff:
		return wal.SyncOff
	default:
		return wal.SyncInterval
	}
}

// String names the policy like the flag values cmd/mvserver accepts.
func (p FsyncPolicy) String() string { return p.wal().String() }

// DurabilityOptions tunes the per-node write-ahead logs when the
// store is durable (Config.Backend or Config.Dir set). The zero value
// fsyncs every 50ms and rotates 4 MiB segments.
type DurabilityOptions struct {
	// Fsync is the WAL sync policy.
	Fsync FsyncPolicy
	// FsyncInterval is the ticker period under FsyncInterval.
	FsyncInterval time.Duration
	// SegmentBytes is the WAL segment rotation threshold; it also
	// bounds how large the propagation-intent log grows before being
	// checkpointed down to the pending set.
	SegmentBytes int64
}

// RecoveryStats summarizes what a durable Open restored before the DB
// began serving. Zero in memory mode.
type RecoveryStats struct {
	// Nodes is how many nodes had durable state to recover.
	Nodes int `json:"nodes"`
	// Tables and Runs count recovered table states and sstable runs.
	Tables int `json:"tables"`
	Runs   int `json:"runs"`
	// SegmentsReplayed / RecordsReplayed / BytesReplayed cover the WAL
	// tails re-applied to memtables plus the intent logs.
	SegmentsReplayed int   `json:"segments_replayed"`
	RecordsReplayed  int   `json:"records_replayed"`
	BytesReplayed    int64 `json:"bytes_replayed"`
	// TornTails counts logs whose final record was incomplete (the
	// expected signature of a crash mid-append; the tail is dropped).
	TornTails int `json:"torn_tails"`
	// IntentsPending is how many propagation intents were logged as
	// started but not finished; IntentsReenqueued how many of those
	// recovery managed to re-schedule (the rest stay pending on disk
	// for the next Open).
	IntentsPending    int `json:"intents_pending"`
	IntentsReenqueued int `json:"intents_reenqueued"`
	// Duration is wall time from Open start to recovery complete.
	Duration time.Duration `json:"duration_ns"`
}

// RecoveryStats reports what this DB restored at Open.
func (db *DB) RecoveryStats() RecoveryStats { return db.recovery }

// --- Schema persistence -----------------------------------------------------

// schemaDoc is the SCHEMA.json file at a durable store's root: base
// tables, view and join-view definitions, secondary indexes, and the
// cluster shape they were placed under.
type schemaDoc struct {
	FormatVersion int
	// Nodes is the cluster size; placement depends on it, so Open
	// refuses any other. Absent in schemas written before it was
	// recorded, which open under any size.
	Nodes   int `json:",omitempty"`
	Tables  []string
	Views   []schemaView
	Joins   []schemaJoin
	Indexes map[string][]string `json:",omitempty"`
	// PendingDrops lists views whose storage teardown was in flight
	// when the schema was written; recovery re-executes them (node
	// drops are idempotent) so a crash mid-drop cannot resurrect old
	// view rows. Absent in schemas written before online view drops.
	PendingDrops []string `json:",omitempty"`
}

type schemaView struct {
	Def ViewDef
	// State records the view's lifecycle ("backfilling" while the
	// online fill is running; empty or "live" otherwise). A view
	// restored in the backfilling state resumes its scan from the
	// persisted checkpoint. Absent in schemas written before online
	// backfill existed, which is read as live.
	State string `json:",omitempty"`
}

type schemaJoin struct {
	Def JoinViewDef
	// State mirrors schemaView.State for join views.
	State string `json:",omitempty"`
}

const (
	schemaFileName      = "SCHEMA.json"
	schemaFormatVersion = 1
)

// currentSchema captures the DB's schema for persistence, including
// each view's lifecycle state and any in-flight view drops.
func (db *DB) currentSchema() schemaDoc {
	s := schemaDoc{FormatVersion: schemaFormatVersion, Nodes: db.cluster.Size()}
	views := map[string]bool{}
	lifecycle := func(name string) string {
		if st, ok := db.bf.State(name); ok && st == backfill.StateBackfilling {
			return string(st)
		}
		return "" // live — the zero value, so pre-backfill schemas read identically
	}
	for _, name := range db.registry.ViewNames() {
		views[name] = true
		defs := db.registry.Defs(name)
		switch len(defs) {
		case 1:
			d := defs[0]
			mv := schemaView{Def: ViewDef{
				Name: d.Name, Base: d.Base, ViewKey: d.ViewKeyColumn,
				Materialized: append([]string(nil), d.Materialized...),
			}, State: lifecycle(name)}
			if d.Selection != nil {
				mv.Def.Selection = &Selection{Prefix: d.Selection.Prefix, Min: d.Selection.Min, Max: d.Selection.Max}
			}
			s.Views = append(s.Views, mv)
		case 2:
			mj := schemaJoin{Def: JoinViewDef{Name: name}, State: lifecycle(name)}
			sides := []*JoinSide{&mj.Def.Left, &mj.Def.Right}
			for i, d := range defs {
				sides[i].Base = d.Base
				sides[i].On = d.ViewKeyColumn
				sides[i].Materialized = append([]string(nil), d.Materialized...)
				if d.Selection != nil {
					sides[i].Selection = &Selection{Prefix: d.Selection.Prefix, Min: d.Selection.Min, Max: d.Selection.Max}
				}
			}
			s.Joins = append(s.Joins, mj)
		}
	}
	for _, t := range db.cluster.Tables() {
		if !views[t] {
			s.Tables = append(s.Tables, t)
		}
	}
	if idx := db.cluster.Indexes(); len(idx) > 0 {
		s.Indexes = idx
	}
	db.dropMu.Lock()
	s.PendingDrops = append([]string(nil), db.pendingDrops...)
	db.dropMu.Unlock()
	return s
}

// persistSchema atomically rewrites SCHEMA.json; a no-op in memory
// mode. Called after every schema mutation so a crash never forgets a
// created table, view or index.
func (db *DB) persistSchema() error {
	if db.backend == nil {
		return nil
	}
	// Serialized end-to-end: concurrent writers (DropView, the backfill
	// OnLive callback) must not let an older schema snapshot overwrite
	// a newer one.
	db.schemaMu.Lock()
	defer db.schemaMu.Unlock()
	return writeSchema(db.backend, db.currentSchema())
}

// writeSchema atomically replaces SCHEMA.json on b. Atomicity,
// durability, and temp-file cleanup on error are the backend's
// WriteFileAtomic contract.
func writeSchema(b Backend, doc schemaDoc) error {
	data, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	return b.WriteFileAtomic(schemaFileName, data)
}

// readSchema loads SCHEMA.json from b: nil on a fresh backend, an
// error when the file is corrupt or of an unknown format.
func readSchema(b Backend) (*schemaDoc, error) {
	data, err := b.ReadFile(schemaFileName)
	if physical.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var doc schemaDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("vstore: corrupt %s: %w", schemaFileName, err)
	}
	if doc.FormatVersion != schemaFormatVersion {
		return nil, fmt.Errorf("vstore: unsupported schema format %d", doc.FormatVersion)
	}
	return &doc, nil
}

// SaveSnapshotTo writes a checkpoint of the cluster onto b, which must
// be empty, in the durable layout: each node's tables (views included,
// so they need no rebuild) as one sstable run per table in the node's
// storage namespace, then SCHEMA.json. Restoring is Open with
// Config.Backend set to b (or Config.Dir, for FSBackend(dir)): a
// durable reopen, so backfilling views resume. The schema is written
// last and atomically, so a save that fails part-way leaves a target
// that opens as an empty store. Writes accepted while the save runs may
// or may not be included (each table is copied atomically, the cluster
// is not); restoring is always safe because cells carry their LWW
// timestamps.
func (db *DB) SaveSnapshotTo(b Backend) error {
	names, err := b.List("")
	if err != nil {
		return err
	}
	if len(names) > 0 {
		// Open reads everything under the root (schema, node
		// namespaces, backfill checkpoints), so saving over old files
		// would merge them into the checkpoint.
		return fmt.Errorf("vstore: snapshot target is not empty (holds %s)", names[0])
	}
	schema := db.currentSchema()
	for i, n := range db.cluster.Nodes {
		st, err := wal.OpenStorage(physical.Sub(b, cluster.NodeSub(transport.NodeID(i))), wal.Options{Policy: wal.SyncOff})
		if err != nil {
			return err
		}
		for _, table := range db.cluster.Tables() {
			entries := n.TableSnapshot(table)
			if len(entries) == 0 {
				continue
			}
			if _, err := st.Table(table).FlushRun(sstable.Build(entries)); err != nil {
				_ = st.Abandon() // already failing; the flush error wins
				return fmt.Errorf("vstore: saving node %d table %q: %w", i, table, err)
			}
		}
		if err := st.Close(); err != nil {
			return err
		}
	}
	return writeSchema(b, schema)
}

// toCoreDef converts a public view definition for the registry.
func toCoreDef(d ViewDef) core.Def {
	cd := core.Def{Name: d.Name, Base: d.Base, ViewKeyColumn: d.ViewKey, Materialized: d.Materialized}
	if d.Selection != nil {
		cd.Selection = &core.Selection{Prefix: d.Selection.Prefix, Min: d.Selection.Min, Max: d.Selection.Max}
	}
	return cd
}

// toCoreJoin converts a public join-view definition for the registry.
func toCoreJoin(d JoinViewDef) core.JoinDef {
	side := func(s JoinSide) core.JoinSide {
		cs := core.JoinSide{Base: s.Base, On: s.On, Materialized: s.Materialized}
		if s.Selection != nil {
			cs.Selection = &core.Selection{Prefix: s.Selection.Prefix, Min: s.Selection.Min, Max: s.Selection.Max}
		}
		return cs
	}
	return core.JoinDef{Name: d.Name, Left: side(d.Left), Right: side(d.Right)}
}

// restoreSchema registers the schema's tables, view definitions and
// secondary indexes over the node state cluster.Open recovered (index
// creation back-fills from the restored rows). Views recorded
// mid-backfill resume their scan — from the persisted checkpoint when
// the backend has one, from the start otherwise (resuming is always
// safe: fills are idempotent).
func (db *DB) restoreSchema(s *schemaDoc) error {
	tables := append([]string(nil), s.Tables...)
	for _, v := range s.Views {
		tables = append(tables, v.Def.Name)
	}
	for _, j := range s.Joins {
		tables = append(tables, j.Def.Name)
	}
	for _, t := range tables {
		if err := db.cluster.CreateTable(t); err != nil {
			return err
		}
	}
	resume := func(name, state string) error {
		if state == string(backfill.StateBackfilling) {
			return db.startBackfill(name)
		}
		db.bf.Track(name)
		return nil
	}
	for _, v := range s.Views {
		if err := db.registry.Define(toCoreDef(v.Def)); err != nil {
			return err
		}
		if err := resume(v.Def.Name, v.State); err != nil {
			return err
		}
	}
	for _, j := range s.Joins {
		if err := db.registry.DefineJoin(toCoreJoin(j.Def)); err != nil {
			return err
		}
		if err := resume(j.Def.Name, j.State); err != nil {
			return err
		}
	}
	indexed := make([]string, 0, len(s.Indexes))
	for t := range s.Indexes {
		indexed = append(indexed, t)
	}
	sort.Strings(indexed)
	for _, t := range indexed {
		for _, col := range s.Indexes[t] {
			if err := db.cluster.CreateIndex(t, col); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- Recovery ---------------------------------------------------------------

// replayTimeout bounds the quorum pre-read of each re-enqueued intent
// during recovery.
const replayTimeout = 30 * time.Second

// recoverDurable finishes a durable Open after cluster.Open has
// rebuilt node state from MANIFESTs, run files and WAL tails: restore
// doc, the schema Open read (nil on a fresh backend), wire each
// manager's intent log, and re-enqueue the propagation intents that
// were pending when the previous process stopped. Re-enqueueing is idempotent — propagation re-reads the base
// row and view state, and LWW timestamps make repeated applies
// converge — so an intent replayed twice (crash after propagation but
// before its done record synced) is harmless.
func (db *DB) recoverDurable(start time.Time, doc *schemaDoc) error {
	if doc != nil {
		// Finish interrupted view drops before anything else: the
		// previous process committed to dropping these (their
		// definitions are already gone from the schema), so their
		// leftover storage — replayed into node memory by cluster.Open —
		// must go before a same-named view can be re-created. Node drops
		// are idempotent, so re-executing a partially completed drop is
		// safe.
		for _, name := range doc.PendingDrops {
			for _, n := range db.cluster.Nodes {
				if err := n.DropTable(name); err != nil {
					return fmt.Errorf("vstore: finishing interrupted drop of %q: %w", name, err)
				}
			}
		}
		if err := db.restoreSchema(doc); err != nil {
			return err
		}
		if len(doc.PendingDrops) > 0 {
			// Clear the finished drops from the schema file.
			if err := db.persistSchema(); err != nil {
				return err
			}
		}
	}

	for i, s := range db.cluster.Storages {
		if s != nil {
			db.managers[i].SetIntentLog(s)
		}
	}
	for _, rec := range db.cluster.Recoveries {
		db.recovery.Nodes++
		db.recovery.Tables += rec.Stats.Tables
		db.recovery.Runs += rec.Stats.Runs
		db.recovery.SegmentsReplayed += rec.Stats.SegmentsReplayed
		db.recovery.RecordsReplayed += rec.Stats.RecordsReplayed
		db.recovery.BytesReplayed += rec.Stats.BytesReplayed
		db.recovery.TornTails += rec.Stats.TornTails
		db.recovery.IntentsPending += len(rec.Intents)
		mgr := db.managers[int(rec.Node)]
		for _, it := range rec.Intents {
			// The manager marks the intent done once every propagation
			// of it has completed; abandoned or cut short by Close, it
			// stays pending and the next Open retries it.
			ctx, cancel := context.WithTimeout(context.Background(), replayTimeout)
			err := mgr.Repropagate(ctx, it)
			cancel()
			if err != nil {
				// Nothing was scheduled; the intent survives in the log
				// and the next recovery retries it.
				continue
			}
			db.recovery.IntentsReenqueued++
		}
	}
	db.recovery.Duration = db.now().Sub(start)
	return nil
}

package wal

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"vstore/internal/model"
	"vstore/internal/physical"
	"vstore/internal/sstable"
)

// Storage is one node's durable state, rooted at a physical.Backend:
//
//	MANIFEST.json        atomically-rewritten run registry
//	sst/<run>.sst        immutable sstable runs (sstable.WriteTo)
//	wal/t_<hex>/         per-table mutation log segments
//	wal/intents/         propagation-intent log segments
//
// The MANIFEST is the commit point for flushes and compactions: a run
// file exists durably before the MANIFEST references it, so a crash
// between the two leaves an orphan file that recovery GCs, never a
// referenced-but-missing run.
type Storage struct {
	b    physical.Backend
	opts Options

	mu      sync.Mutex
	man     manifest
	logs    map[string]*Log
	runRefs map[uint64]bool // referenced by the manifest

	intentMu    sync.Mutex
	intents     *Log
	pending     map[uint64]Intent
	nextIntent  uint64
	intentBytes int64  // appended since the last checkpoint
	intentBuf   []byte // frame scratch of intent-log appends

	closed bool
}

// manifest is the durable run registry. FormatVersion guards future
// layout changes; NextRun makes run ids monotonic across restarts.
type manifest struct {
	FormatVersion int                 `json:"format_version"`
	NextRun       uint64              `json:"next_run"`
	Tables        map[string][]uint64 `json:"tables"` // run ids, newest first
}

const (
	manifestName    = "MANIFEST.json"
	manifestVersion = 1
	sstDirName      = "sst"
	walDirName      = "wal"
	intentsDirName  = "intents"
	tableDirPrefix  = "t_"
	runSuffix       = ".sst"
)

// OpenStorage opens a node's storage root on backend b, loads the
// MANIFEST, and deletes orphan sstable files left by a crash between a
// run write and its MANIFEST commit. It does not read run contents or
// WAL records — call Recover for that.
func OpenStorage(b physical.Backend, opts Options) (*Storage, error) {
	opts.fill()
	s := &Storage{
		b:          b,
		opts:       opts,
		logs:       make(map[string]*Log),
		runRefs:    make(map[uint64]bool),
		pending:    make(map[uint64]Intent),
		nextIntent: 1,
	}
	if err := s.loadManifest(); err != nil {
		return nil, err
	}
	if err := s.gcOrphanRuns(); err != nil {
		return nil, err
	}
	return s, nil
}

// Backend returns the storage root backend (simulator and test use:
// "reopening after a crash" is OpenStorage over the same backend).
func (s *Storage) Backend() physical.Backend { return s.b }

// Policy returns the configured fsync policy.
func (s *Storage) Policy() SyncPolicy { return s.opts.Policy }

func (s *Storage) loadManifest() error {
	s.man = manifest{FormatVersion: manifestVersion, NextRun: 1, Tables: map[string][]uint64{}}
	data, err := s.b.ReadFile(manifestName)
	if physical.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &s.man); err != nil {
		return fmt.Errorf("wal: corrupt manifest: %w", err)
	}
	if s.man.FormatVersion != manifestVersion {
		return fmt.Errorf("wal: manifest format %d not supported", s.man.FormatVersion)
	}
	if s.man.Tables == nil {
		s.man.Tables = map[string][]uint64{}
	}
	for _, runs := range s.man.Tables {
		for _, id := range runs {
			s.runRefs[id] = true
		}
	}
	return nil
}

// commitManifestLocked atomically rewrites the MANIFEST. Callers hold
// s.mu and have already mutated s.man. Atomicity and durability (temp
// file + fsync + rename + directory fsync on the fs backend) are the
// backend's WriteFileAtomic contract.
func (s *Storage) commitManifestLocked() error {
	data, err := json.MarshalIndent(&s.man, "", "  ")
	if err != nil {
		return err
	}
	return s.b.WriteFileAtomic(manifestName, data)
}

// gcOrphanRuns deletes sstable files not referenced by the MANIFEST —
// the residue of a crash after a run write but before its commit, or
// after a commit that replaced runs but before their deletion.
func (s *Storage) gcOrphanRuns() error {
	names, err := s.b.List(sstDirName)
	if err != nil {
		return err
	}
	for _, name := range names {
		if strings.HasSuffix(name, "/") {
			continue
		}
		id, ok := parseRunName(name)
		if !ok || s.runRefs[id] {
			// Unparseable names include in-flight temp files from
			// WriteFileAtomic; stale ones are harmless and rewritten
			// paths never collide, so only remove what we can attribute
			// to a crashed flush.
			if !ok && strings.Contains(name, ".tmp") {
				//lint:ignore sinkerr best-effort temp cleanup; a leftover temp file is harmless
				s.b.Remove(sstDirName + "/" + name)
			}
			continue
		}
		if err := s.b.Remove(sstDirName + "/" + name); err != nil {
			return err
		}
	}
	return nil
}

func parseRunName(name string) (uint64, bool) {
	if !strings.HasSuffix(name, runSuffix) {
		return 0, false
	}
	id, err := strconv.ParseUint(strings.TrimSuffix(name, runSuffix), 16, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}

func (s *Storage) runName(id uint64) string {
	return fmt.Sprintf("%s/%016x%s", sstDirName, id, runSuffix)
}

func tableDirName(table string) string {
	return tableDirPrefix + hex.EncodeToString([]byte(table))
}

func tableFromDirName(name string) (string, bool) {
	if !strings.HasPrefix(name, tableDirPrefix) {
		return "", false
	}
	b, err := hex.DecodeString(strings.TrimPrefix(name, tableDirPrefix))
	if err != nil {
		return "", false
	}
	return string(b), true
}

// tableWAL returns the backend namespaced to one table's log dir.
func (s *Storage) tableWAL(table string) physical.Backend {
	return physical.Sub(s.b, walDirName+"/"+tableDirName(table))
}

// tableLog lazily opens the mutation log for a table.
func (s *Storage) tableLog(table string) (*Log, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok := s.logs[table]; ok {
		return l, nil
	}
	if s.closed {
		return nil, os.ErrClosed
	}
	l, err := OpenLog(s.tableWAL(table), s.opts)
	if err != nil {
		return nil, err
	}
	s.logs[table] = l
	return l, nil
}

func (s *Storage) intentLog() (*Log, error) {
	// Callers hold intentMu.
	if s.intents != nil {
		return s.intents, nil
	}
	if s.closed {
		return nil, os.ErrClosed
	}
	l, err := OpenLog(physical.Sub(s.b, walDirName+"/"+intentsDirName), s.opts)
	if err != nil {
		return nil, err
	}
	s.intents = l
	return l, nil
}

// --- Recovery --------------------------------------------------------------

// RecoveredTable is one table's durable state: its live runs (newest
// first, mirroring the LSM's order) and the WAL tail not yet covered
// by any run.
type RecoveredTable struct {
	Runs []RecoveredRun
	Tail []model.Entry
}

// RecoveredRun pairs a run with its manifest id so the LSM can hand
// the id back when the run is later compacted away.
type RecoveredRun struct {
	ID    uint64
	Table *sstable.Table
}

// RecoveryStats summarizes what a Recover pass restored.
type RecoveryStats struct {
	Tables           int   `json:"tables"`
	Runs             int   `json:"runs"`
	SegmentsReplayed int   `json:"segments_replayed"`
	RecordsReplayed  int   `json:"records_replayed"`
	TornTails        int   `json:"torn_tails"`
	IntentsPending   int   `json:"intents_pending"`
	IntentRecords    int   `json:"intent_records"`
	BytesReplayed    int64 `json:"bytes_replayed"`
}

// Add accumulates per-node stats into a cluster-wide total.
func (r *RecoveryStats) Add(o RecoveryStats) {
	r.Tables += o.Tables
	r.Runs += o.Runs
	r.SegmentsReplayed += o.SegmentsReplayed
	r.RecordsReplayed += o.RecordsReplayed
	r.TornTails += o.TornTails
	r.IntentsPending += o.IntentsPending
	r.IntentRecords += o.IntentRecords
	r.BytesReplayed += o.BytesReplayed
}

// Recovery is the full result of a Recover pass.
type Recovery struct {
	Tables  map[string]RecoveredTable
	Intents []Intent // pending (started, never done), in log order
	Stats   RecoveryStats
}

// Recover rebuilds the node's durable state: loads every manifest run,
// replays each table's WAL tail, and reconstructs the set of pending
// propagation intents (start without done). It must be called before
// new writes; the intent log's id counter and pending set are seeded
// here.
func (s *Storage) Recover() (*Recovery, error) {
	rec := &Recovery{Tables: map[string]RecoveredTable{}}

	s.mu.Lock()
	tables := make(map[string][]uint64, len(s.man.Tables))
	for t, runs := range s.man.Tables {
		tables[t] = append([]uint64(nil), runs...)
	}
	s.mu.Unlock()

	// Tables with WAL directories but no flushed runs yet.
	walEnts, err := s.b.List(walDirName)
	if err != nil {
		return nil, err
	}
	for _, name := range walEnts {
		if !strings.HasSuffix(name, "/") {
			continue
		}
		if t, ok := tableFromDirName(strings.TrimSuffix(name, "/")); ok {
			if _, seen := tables[t]; !seen {
				tables[t] = nil
			}
		}
	}

	for table, runIDs := range tables {
		var rt RecoveredTable
		for _, id := range runIDs {
			tbl, err := sstable.ReadFrom(s.b, s.runName(id))
			if err != nil {
				return nil, fmt.Errorf("wal: run %016x of %q: %w", id, table, err)
			}
			rt.Runs = append(rt.Runs, RecoveredRun{ID: id, Table: tbl})
			rec.Stats.Runs++
		}
		st, err := ReplayDir(s.tableWAL(table), func(p []byte) error {
			typ, body, err := recordType(p)
			if err != nil {
				return err
			}
			switch typ {
			case recMutations:
				rt.Tail, err = decodeMutations(body, rt.Tail)
				return err
			case recMutation:
				e, err := decodeMutation(body)
				if err != nil {
					return err
				}
				rt.Tail = append(rt.Tail, e)
				return nil
			}
			return fmt.Errorf("%w: record type %d in mutation log", ErrBadRecord, typ)
		})
		if err != nil {
			return nil, fmt.Errorf("wal: replay %q: %w", table, err)
		}
		rec.Stats.SegmentsReplayed += st.Segments
		rec.Stats.RecordsReplayed += st.Records
		rec.Stats.BytesReplayed += st.Bytes
		if st.TornTail {
			rec.Stats.TornTails++
		}
		rec.Tables[table] = rt
		rec.Stats.Tables++
	}

	// Intent log: pending = started minus done, preserving log order.
	s.intentMu.Lock()
	defer s.intentMu.Unlock()
	var order []uint64
	st, err := ReplayDir(physical.Sub(s.b, walDirName+"/"+intentsDirName), func(p []byte) error {
		typ, body, err := recordType(p)
		if err != nil {
			return err
		}
		switch typ {
		case recIntentStart:
			it, err := decodeIntentStart(body)
			if err != nil {
				return err
			}
			if it.ID >= s.nextIntent {
				s.nextIntent = it.ID + 1
			}
			if _, dup := s.pending[it.ID]; !dup {
				order = append(order, it.ID)
			}
			s.pending[it.ID] = it
		case recIntentDone:
			id, err := decodeIntentDone(body)
			if err != nil {
				return err
			}
			if id >= s.nextIntent {
				s.nextIntent = id + 1
			}
			delete(s.pending, id)
		default:
			return fmt.Errorf("%w: record type %d in intent log", ErrBadRecord, typ)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("wal: replay intents: %w", err)
	}
	rec.Stats.IntentRecords = st.Records
	if st.TornTail {
		rec.Stats.TornTails++
	}
	for _, id := range order {
		if it, ok := s.pending[id]; ok {
			rec.Intents = append(rec.Intents, it)
		}
	}
	rec.Stats.IntentsPending = len(rec.Intents)
	return rec, nil
}

// --- Per-table persistence (the lsm.Persist contract) ----------------------

// TableStorage adapts one table's slice of the Storage to the LSM's
// persistence hooks. It holds its table's log once the first append
// opens it, so an append does not take Storage.mu, which a MANIFEST
// commit of any table holds across its fsyncs; and it encodes each
// record into one reused buffer.
type TableStorage struct {
	s     *Storage
	table string

	mu  sync.Mutex // guards log and buf
	log *Log
	buf []byte // frame scratch
}

// maxScratchBytes bounds the record buffer a TableStorage keeps
// between appends: one outsized record does not pin its buffer.
const maxScratchBytes = 1 << 20

// Table returns the persistence handle for one table.
func (s *Storage) Table(table string) *TableStorage {
	return &TableStorage{s: s, table: table}
}

// logLocked returns the table's log, opening it on first use. Callers
// hold t.mu.
func (t *TableStorage) logLocked() (*Log, error) {
	if t.log == nil {
		l, err := t.s.tableLog(t.table)
		if err != nil {
			return nil, err
		}
		t.log = l
	}
	return t.log, nil
}

// AppendMutations logs es ahead of their memtable apply as one
// recMutations record: replay restores all of them or, if the record
// is torn, none. Entries whose record would exceed maxRecordBytes are
// refused with ErrRecordTooLarge and nothing is written; an empty es
// writes nothing. The log keeps nothing of es.
func (t *TableStorage) AppendMutations(es []model.Entry) error {
	if len(es) == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l, err := t.logLocked()
	if err != nil {
		return err
	}
	t.buf = appendMutations(beginFrame(t.buf), es)
	err = l.appendFrame(t.buf)
	if cap(t.buf) > maxScratchBytes {
		t.buf = nil
	}
	return err
}

// AppendMutation logs one cell: AppendMutations of one entry.
func (t *TableStorage) AppendMutation(key []byte, c model.Cell) error {
	e := [1]model.Entry{{Key: key, Cell: c}}
	return t.AppendMutations(e[:])
}

// FlushRun makes a memtable flush durable: write the run file, commit
// it to the MANIFEST, then truncate the table's WAL — everything the
// log covered is now in the run. Returns the new run's id.
func (t *TableStorage) FlushRun(tbl *sstable.Table) (uint64, error) {
	id, err := t.s.writeRun(tbl)
	if err != nil {
		return 0, err
	}
	s := t.s
	s.mu.Lock()
	s.man.Tables[t.table] = append([]uint64{id}, s.man.Tables[t.table]...)
	s.runRefs[id] = true
	err = s.commitManifestLocked()
	s.mu.Unlock()
	if err != nil {
		return 0, err
	}
	// Truncation: appends are blocked by the LSM's store lock for the
	// duration of the flush, so rotating and dropping everything below
	// the new active segment cannot lose records.
	t.mu.Lock()
	l, err := t.logLocked()
	t.mu.Unlock()
	if err != nil {
		return id, err
	}
	if err := l.Rotate(); err != nil {
		return id, err
	}
	if _, err := l.DropBefore(l.SegmentSeq()); err != nil {
		return id, err
	}
	return id, nil
}

// ReplaceRuns makes a compaction durable: write the merged run, commit
// a MANIFEST where it replaces the inputs, then delete the input
// files. A crash between commit and deletion leaves orphans for the
// next open's GC. The merged run goes first and the runs not in old
// keep their order behind it, so a compaction of the newest runs (what
// the LSM's size-tiered rule merges) keeps the list newest first, as
// FlushRun does.
func (t *TableStorage) ReplaceRuns(old []uint64, merged *sstable.Table) (uint64, error) {
	id, err := t.s.writeRun(merged)
	if err != nil {
		return 0, err
	}
	drop := make(map[uint64]bool, len(old))
	for _, o := range old {
		drop[o] = true
	}
	s := t.s
	s.mu.Lock()
	kept := []uint64{id}
	for _, r := range s.man.Tables[t.table] {
		if !drop[r] {
			kept = append(kept, r)
		}
	}
	s.man.Tables[t.table] = kept
	s.runRefs[id] = true
	for _, o := range old {
		delete(s.runRefs, o)
	}
	err = s.commitManifestLocked()
	s.mu.Unlock()
	if err != nil {
		return 0, err
	}
	for _, o := range old {
		//lint:ignore sinkerr the manifest no longer references these runs; orphan GC covers leftovers
		s.b.Remove(s.runName(o))
	}
	return id, nil
}

func (s *Storage) writeRun(tbl *sstable.Table) (uint64, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, os.ErrClosed
	}
	id := s.man.NextRun
	s.man.NextRun++
	s.mu.Unlock()
	if err := sstable.WriteTo(s.b, s.runName(id), tbl); err != nil {
		return 0, err
	}
	return id, nil
}

// DropTable removes every durable trace of one table: its manifest
// entry (the commit point — committed first, so a crash at any later
// step leaves only orphan run files and dead WAL segments), then its
// run files and mutation-log segments. The caller is responsible for
// redoing an interrupted drop (vstore records pending drops in its
// schema file); redoing a completed one is a no-op.
func (s *Storage) DropTable(table string) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return os.ErrClosed
	}
	runs := append([]uint64(nil), s.man.Tables[table]...)
	if _, ok := s.man.Tables[table]; ok {
		delete(s.man.Tables, table)
		if err := s.commitManifestLocked(); err != nil {
			// Still referenced; nothing was lost.
			s.man.Tables[table] = runs
			s.mu.Unlock()
			return err
		}
		for _, id := range runs {
			delete(s.runRefs, id)
		}
	}
	l := s.logs[table]
	delete(s.logs, table)
	s.mu.Unlock()
	if l != nil {
		//lint:ignore sinkerr the log's segments are removed below; a failed close cannot resurrect them
		l.Abandon()
	}
	for _, id := range runs {
		//lint:ignore sinkerr unreferenced runs are orphans; the next open's GC reaps leftovers
		s.b.Remove(s.runName(id))
	}
	dir := walDirName + "/" + tableDirName(table)
	names, err := s.b.List(dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		if strings.HasSuffix(name, "/") {
			continue
		}
		if err := s.b.Remove(dir + "/" + name); err != nil && !physical.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// --- Intents ---------------------------------------------------------------

// NextIntentID allocates a monotonically increasing intent id.
func (s *Storage) NextIntentID() uint64 {
	s.intentMu.Lock()
	defer s.intentMu.Unlock()
	id := s.nextIntent
	s.nextIntent++
	return id
}

// LogIntentStart makes a propagation intent durable before the Put it
// belongs to is acknowledged.
func (s *Storage) LogIntentStart(it Intent) error {
	s.intentMu.Lock()
	defer s.intentMu.Unlock()
	l, err := s.intentLog()
	if err != nil {
		return err
	}
	if err := s.appendIntentLocked(l, it); err != nil {
		return err
	}
	s.pending[it.ID] = it
	return nil
}

// LogIntentDone marks an intent's propagation complete. When the log
// has grown past the segment threshold it is checkpointed: still-
// pending intents are re-logged into a fresh segment and old segments
// are dropped, bounding replay work to the pending set.
func (s *Storage) LogIntentDone(id uint64) error {
	s.intentMu.Lock()
	defer s.intentMu.Unlock()
	l, err := s.intentLog()
	if err != nil {
		return err
	}
	s.intentBuf = appendIntentDone(beginFrame(s.intentBuf), id)
	if err := l.appendFrame(s.intentBuf); err != nil {
		return err
	}
	delete(s.pending, id)
	s.intentBytes += 16
	if s.intentBytes >= s.opts.SegmentBytes {
		return s.checkpointIntentsLocked(l)
	}
	return nil
}

// appendIntentLocked logs the start record of it into l through the reused
// intent buffer. Callers hold intentMu.
func (s *Storage) appendIntentLocked(l *Log, it Intent) error {
	s.intentBuf = appendIntentStart(beginFrame(s.intentBuf), it)
	if err := l.appendFrame(s.intentBuf); err != nil {
		return err
	}
	s.intentBytes += int64(len(s.intentBuf) - frameHeader)
	if cap(s.intentBuf) > maxScratchBytes {
		s.intentBuf = nil
	}
	return nil
}

// PendingIntents returns the ids currently started but not done
// (diagnostics and tests).
func (s *Storage) PendingIntents() []uint64 {
	s.intentMu.Lock()
	defer s.intentMu.Unlock()
	ids := make([]uint64, 0, len(s.pending))
	for id := range s.pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// checkpointIntentsLocked compacts the intent log. Order matters for
// crash safety: rotate first (old segments intact), re-log pending
// starts into the new segment, sync, and only then drop old segments.
// A crash at any point leaves either the old segments (full history)
// or the new checkpoint (pending set), never neither; replay dedupes
// repeated starts by id.
func (s *Storage) checkpointIntentsLocked(l *Log) error {
	if err := l.Rotate(); err != nil {
		return err
	}
	keep := l.SegmentSeq()
	s.intentBytes = 0
	// Re-log in id order: recovery returns pending intents in log
	// order, and replaying them must be deterministic (the simulator's
	// traces depend on it).
	ids := make([]uint64, 0, len(s.pending))
	for id := range s.pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if err := s.appendIntentLocked(l, s.pending[id]); err != nil {
			return err
		}
	}
	if err := l.Sync(); err != nil {
		return err
	}
	_, err := l.DropBefore(keep)
	return err
}

// --- Lifecycle -------------------------------------------------------------

// Sync forces every open log to disk — the clean-shutdown barrier.
func (s *Storage) Sync() error {
	s.mu.Lock()
	logs := make([]*Log, 0, len(s.logs)+1)
	for _, l := range s.logs {
		logs = append(logs, l)
	}
	s.mu.Unlock()
	s.intentMu.Lock()
	if s.intents != nil {
		logs = append(logs, s.intents)
	}
	s.intentMu.Unlock()
	var first error
	for _, l := range logs {
		if err := l.Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close syncs and closes every log. Safe to call twice.
func (s *Storage) Close() error { return s.closeLogs(true) }

// Abandon closes every log without syncing, modeling a crash: only
// policy-synced (and OS-written) bytes survive for the next Open.
func (s *Storage) Abandon() error { return s.closeLogs(false) }

func (s *Storage) closeLogs(sync bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	logs := make([]*Log, 0, len(s.logs)+1)
	for _, l := range s.logs {
		logs = append(logs, l)
	}
	s.mu.Unlock()
	s.intentMu.Lock()
	if s.intents != nil {
		logs = append(logs, s.intents)
	}
	s.intentMu.Unlock()
	var first error
	for _, l := range logs {
		var err error
		if sync {
			err = l.Close()
		} else {
			err = l.Abandon()
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

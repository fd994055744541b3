package sim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"vstore/internal/antientropy"
	"vstore/internal/backfill"
	"vstore/internal/coord"
	"vstore/internal/core"
	"vstore/internal/lsm"
	"vstore/internal/metrics"
	"vstore/internal/model"
	"vstore/internal/node"
	"vstore/internal/physical"
	"vstore/internal/physical/faulty"
	physfs "vstore/internal/physical/fs"
	"vstore/internal/ring"
	"vstore/internal/transport"
	"vstore/internal/wal"
)

// The simulated workload: one base table with a view-key column and one
// materialized column, one materialized view over it.
const (
	baseTable = "base"
	viewTable = "byview"
	vkCol     = "vk"
	matCol    = "val"
)

// Config parameterizes one simulation run. Everything the run does —
// workload, latencies, drops, crashes, partitions — derives from Seed.
type Config struct {
	Seed int64

	// Cluster shape.
	Nodes int // default 4 (the paper's testbed)
	N     int // replication factor, default 3

	// Workload shape. Few base rows and view keys concentrate updates
	// so stale chains, timestamp ties and concurrent propagations occur.
	BaseRows     int // default 8
	ViewKeys     int // default 6
	Clients      int // default 4
	OpsPerClient int // default 30

	// Duration is the virtual-time window for client activity and
	// fault injection; all faults heal at Duration and the run then
	// drains to quiescence. Default 2s.
	Duration time.Duration

	// Network.
	Latency   time.Duration // default 2ms
	Jitter    time.Duration // default 1ms
	DropProb  float64       // default 0.02
	DropDelay time.Duration // default 10ms

	// Faults, all within [0, Duration).
	Crashes      int           // node crash/recover cycles, default 6
	MaxCrash     time.Duration // max crash length, default 150ms
	Partitions   int           // pairwise partitions, default 4
	MaxPartition time.Duration // max partition length, default 200ms

	// Backend, when non-nil, makes every node durable: WAL segments,
	// sstable runs and a MANIFEST under the backend's node-<i>
	// namespace, synced on every append (SyncAlways — no background
	// tickers, so runs stay deterministic). Durability is what gives
	// the CrashRestart fault something to recover from. Dir is sugar
	// for a filesystem backend rooted at Dir; Backend wins if both are
	// set (an in-memory backend keeps durable runs hermetic).
	Backend physical.Backend
	Dir     string
	// StorageFaultProb, when positive in durable mode, wraps each
	// node's storage in physical/faulty: appends, fsyncs, atomic
	// MANIFEST rewrites and removes fail with this per-operation
	// probability on a schedule derived from Seed. Injected faults
	// surface as unacknowledged writes and ride the client retry loop;
	// injection is disabled during crash-restart recovery (recovery
	// itself must be clean — the faults it digests were injected
	// before the crash) and from the heal point on, so the drain
	// converges.
	StorageFaultProb float64
	// CrashRestarts is the number of crash-restart faults injected
	// over [0, Duration) when Dir is set. Unlike Crashes (the node is
	// unreachable but keeps its state), a crash-restart discards the
	// node's entire volatile state — memtables, in-flight propagation
	// threads — and rebuilds it from disk; propagation intents that
	// were logged but unfinished are re-enqueued. Faults round-robin
	// over nodes, so CrashRestarts >= Nodes restarts every node at
	// least once. Default Nodes when Dir is set; negative disables.
	CrashRestarts int
	// FlushBytes is the durable nodes' memtable flush threshold. The
	// default (512 bytes when Dir is set) is deliberately tiny so
	// crash-restarts land on every phase of the LSM lifecycle: runs on
	// disk, WAL tails, truncated segments.
	FlushBytes int64

	// MaxPropDelay is the maximum random delay before an asynchronous
	// propagation starts (a busy maintenance queue). Delayed, reordered
	// propagations are what grow stale chains. Default 60ms.
	MaxPropDelay time.Duration

	// PathCompression flattens stale chains during GetLiveKey.
	PathCompression bool

	// CheckEvery runs the continuous invariants every so many events
	// (<=1 = every event).
	CheckEvery int

	// AntiEntropyEvery schedules synchronous anti-entropy rounds during
	// the run; 0 disables (three rounds always run after the drain).
	AntiEntropyEvery time.Duration

	// InjectCycleAt, when positive, corrupts the view at that virtual
	// time with a two-row pointer cycle — a planted fault that the
	// acyclicity invariant must catch deterministically.
	InjectCycleAt time.Duration

	// MaxChainHops bounds GetLiveKey traversals. Default 64.
	MaxChainHops int

	// CreateViewAt, when positive, defines a second materialized view
	// ("bf", same shape as byview) at that virtual time, while clients are
	// writing, and backfills it online with every node's production
	// backfill.Controller (backfill.go). The final oracle then requires it
	// to be cell-identical to the from-birth view.
	CreateViewAt time.Duration
	// DropViewAt, when positive (> CreateViewAt), drops the backfilled
	// view mid-run: in-flight propagations targeting it end, its
	// table is wiped on every node, its checkpoints are cleared.
	DropViewAt time.Duration
	// RecreateViewAt, when positive (> DropViewAt), re-creates the
	// dropped view as a fresh generation that backfills from scratch.
	RecreateViewAt time.Duration
	// SkewedWrites concentrates ~70% of client writes onto two base
	// rows, so view drop/re-create and backfill race a hot-key load.
	SkewedWrites bool

	// hotRows, set by the hot-row scenarios, replaces the random client
	// mix with Clients (default hotRows) writers, writer i one of base row
	// r<i mod hotRows>: each issues its OpsPerClient view-key Puts back to
	// back through a coordinator no other writer of its row uses — a fresh
	// view key at a rising timestamp no other writer of the row uses, no
	// think time — the shape of the benchmark's skew_write.
	hotRows int
	// scenario is the name WithScenario shaped the config with, for
	// ReplayCommand.
	scenario string
}

// WithScenario shapes cfg into one of the named scenarios mvverify's
// -scenario flag and the tests run; the empty name leaves it as is.
func WithScenario(cfg Config, name string) (Config, error) {
	switch name {
	case "":
	case "backfill":
		// A second view is defined mid-run; its per-node scans race the
		// live writes (and the crash-restart fault when durable).
		cfg.CreateViewAt = 500 * time.Millisecond
	case "drop-recreate":
		// Define, drop mid-backfill, re-create as a new generation — under
		// a write load skewed onto two hot base rows.
		cfg.SkewedWrites = true
		cfg.CreateViewAt = 400 * time.Millisecond
		cfg.DropViewAt = 800 * time.Millisecond
		cfg.RecreateViewAt = 1200 * time.Millisecond
	case "define-during-burst":
		// The hot-row writers below, and a second view defined 4ms in: every
		// writer is then inside a Put whose tasks were built before the view
		// existed, on the rows the scans read first, so only the post-ack
		// catalog fence (Manager.lateTasks) carries those writes into it.
		cfg.CreateViewAt = 4 * time.Millisecond
		fallthrough
	case "hot-row":
		// Four back-to-back writers of four rows, fault-free, on the real
		// RetryBackoff and the small backlog bound. The random propagation
		// delay stays: it starts a row's propagations out of order, and a
		// later one then waits for its predecessor's row.
		cfg.hotRows, cfg.OpsPerClient = 4, 25
		cfg.Crashes, cfg.Partitions, cfg.DropProb = -1, -1, -1
	case "shared-row":
		// The hot-row writers, three of each of two rows: a row's
		// propagations run on three coordinators, and one that fails waits
		// for a predecessor scheduled on another.
		cfg.hotRows, cfg.Clients, cfg.OpsPerClient = 2, 6, 20
		cfg.Crashes, cfg.Partitions, cfg.DropProb = -1, -1, -1
	default:
		return cfg, fmt.Errorf("unknown scenario %q (want backfill, drop-recreate, hot-row, shared-row or define-during-burst)", name)
	}
	cfg.scenario = name
	return cfg, nil
}

func (c Config) withDefaults() Config {
	// orDefault fields take their default unless positive, zeroDefault
	// fields only when zero, so a negative value can switch them off.
	orDefault(&c.Nodes, 4)
	orDefault(&c.N, 3)
	c.N = min(c.N, c.Nodes)
	orDefault(&c.BaseRows, 8)
	orDefault(&c.ViewKeys, 6)
	if c.hotRows > 0 {
		orDefault(&c.Clients, c.hotRows)
	}
	orDefault(&c.Clients, 4)
	orDefault(&c.OpsPerClient, 30)
	orDefault(&c.Duration, 2*time.Second)
	zeroDefault(&c.Latency, 2*time.Millisecond)
	zeroDefault(&c.Jitter, time.Millisecond)
	zeroDefault(&c.DropProb, 0.02)
	zeroDefault(&c.DropDelay, 10*time.Millisecond)
	zeroDefault(&c.Crashes, 6)
	orDefault(&c.MaxCrash, 150*time.Millisecond)
	zeroDefault(&c.Partitions, 4)
	if c.Dir != "" || c.Backend != nil {
		zeroDefault(&c.CrashRestarts, c.Nodes)
		orDefault(&c.FlushBytes, 512)
	}
	orDefault(&c.MaxPartition, 200*time.Millisecond)
	zeroDefault(&c.MaxPropDelay, 60*time.Millisecond)
	orDefault(&c.CheckEvery, 1)
	zeroDefault(&c.AntiEntropyEvery, 250*time.Millisecond)
	orDefault(&c.MaxChainHops, 64)
	return c
}

// orDefault sets *v to d unless it is positive.
func orDefault[T int | int64 | time.Duration](v *T, d T) {
	if *v <= 0 {
		*v = d
	}
}

// zeroDefault sets *v to d if it is zero, keeping a negative value (which
// disables the feature).
func zeroDefault[T int | float64 | time.Duration](v *T, d T) {
	if *v == 0 {
		*v = d
	}
}

// Report is the outcome of one simulation run.
type Report struct {
	Seed      int64
	Events    int
	TraceHash string
	Trace     *Trace
	// Err is the first invariant violation or final-oracle mismatch;
	// nil for a clean run. The message embeds the seed and a replay
	// command. Invariant names the first violated invariant ("final-oracle"
	// for end-of-run mismatches, empty on success) and FailedAt is the
	// virtual time of the violation.
	Err       error
	Invariant string
	FailedAt  time.Duration

	Acked int // acknowledged client writes
	// Summed over the core.Stats of every manager of the run, the ones
	// that died in a crash-restart included — the instruments DB.Stats
	// reports in production.
	Propagations       int // completed update propagations, provable no-ops included
	PropagationRetries int // failed PropagateUpdate attempts
	Abandoned          int // propagations given up after the retry budget (a violation)
	LateTasks          int // propagations scheduled by Put's post-ack catalog fence
	BackpressureWaits  int // propagations that waited for a slot of the bounded backlog
	SharedLocks        int // rounds run under the shared row lock
	HandOffs           int // failed attempts parked on an in-flight predecessor
	ChainHops          int // stale rows traversed by GetLiveKey
	GhostDetours       int // walks that ended at an unpublished row and detoured
	BaseReads          int // base-row reads made by CopyData
	Compressions       int // stale pointers rewritten by path compression
	FinalViewRows      int // application-visible view rows at the end
	CrashRestarts      int // nodes killed and recovered from disk
	IntentsReenqueued  int // pending propagation intents replayed at restarts
	// Coord sums the counters of every coordinator of the run, the ones
	// that died in a crash-restart included.
	Coord coord.Stats
	// Costs is every replica request of the run, by the class of client
	// operation it was made for (costs.go); CostTable renders it.
	Costs []ClassCost

	// Online-backfill scenario counters (CreateViewAt > 0), the first two
	// summed over the Progress of every node incarnation's controller.
	BackfillRowsScanned int  // base rows the scans filled
	BackfillResumes     int  // scans resumed from a checkpoint after a crash-restart
	ViewDrops           int  // backfilled-view generations dropped
	BackfillLive        bool // the final generation finished its scan

	// PropLag is the distribution of enqueue→applied propagation lag
	// in virtual-time microseconds — the same staleness gauge DB.Stats
	// exposes, here measured against the deterministic clock. ChainLen
	// is the per-walk chain length (rows touched, 1 = no stale hops),
	// from the same core.ViewObs histogram DB.Stats snapshots.
	PropLag  metrics.HistSnapshot
	ChainLen metrics.HistSnapshot
}

// ReplayCommand returns the mvverify command that reruns cfg's round:
// its seed with the flags that shaped it. A durable round replays on the
// in-memory backend unless it ran in a directory; both backends give the
// same trace. Fields no mvverify flag sets (a test's own fault plan) are
// not represented.
func ReplayCommand(cfg Config) string {
	cfg = cfg.withDefaults()
	cmd := fmt.Sprintf("go run ./cmd/mvverify -replay %d -rows %d -keys %d", cfg.Seed, cfg.BaseRows, cfg.ViewKeys)
	if cfg.PathCompression {
		cmd += " -compress"
	}
	if cfg.scenario != "" {
		cmd += " -scenario " + cfg.scenario
	}
	switch {
	case cfg.Backend != nil:
		cmd += " -durable -backend mem"
	case cfg.Dir != "":
		cmd += " -durable -backend fs"
	default:
		return cmd
	}
	if cfg.StorageFaultProb > 0 {
		cmd += fmt.Sprintf(" -storage-faults %g", cfg.StorageFaultProb)
	}
	return cmd
}

// world is the mutable state of one simulation run. It is only touched
// from the scheduler's thread of control, so it needs no locks.
type world struct {
	cfg    Config
	s      *Scheduler
	fab    *Fabric
	ring   *ring.Ring
	nodes  []*node.Node
	coords []*coord.Coordinator // the shipping coordinator, one per node
	agents []*antientropy.Agent

	// reg is the cluster's one view catalog, lock service and staleness
	// gauge; mgrs the shipping view manager of each node's incarnation,
	// everyMgr those and the dead ones, whose counters still count.
	reg      *core.Registry
	mgrs     []*core.Manager
	everyMgr []*core.Manager
	def      *core.Def // byview

	// Durable mode: each node's storage. A crash-restart closes the
	// node's manager — its propagations end cancelled, like threads dying
	// with their process — and replays the intents its successor recovers.
	durable  bool
	walOpts  wal.Options
	backends []physical.Backend // per-node namespace, fault wrapper included
	faults   []*faulty.Backend  // nil entries when injection is off
	storages []*wal.Storage

	pendingOps map[string]int          // base key → un-acked client writes
	replaying  map[string]int          // base key → recovered intents not yet re-enqueued
	acked      []core.BaseUpdate       // every acknowledged base update, in ack order
	issued     map[string][]model.Cell // encoded base cell key → every cell a client sent for it

	// Online-backfill scenario state (CreateViewAt > 0). bfDef is the
	// current view generation, nil until the first activation. bfs is the
	// backfill controller of each node's incarnation, everyBF those and
	// the dead ones, whose progress still counts.
	bfDef    *core.Def
	bfActive bool
	bfLive   bool
	bfDone   map[transport.NodeID]bool // current generation's finished scans
	bfSince  int                       // len(acked) when it was defined
	bfs      []*backfill.Controller
	everyBF  []*backfill.Controller
	bfAcct   *account // what every scan and fill is charged to

	// vkHistory classes client writes for the cost table (costs.go).
	vkHistory map[string]vkHistory

	report *Report
}

// Run executes one simulation and returns its report. The run is a
// pure function of cfg (in particular cfg.Seed): same config, same
// trace, byte for byte.
func Run(cfg Config) *Report {
	cfg = cfg.withDefaults()
	s := NewScheduler(cfg.Seed, cfg.CheckEvery)
	w := &world{
		cfg:        cfg,
		s:          s,
		fab:        NewFabric(s, cfg),
		pendingOps: map[string]int{},
		replaying:  map[string]int{},
		issued:     map[string][]model.Cell{},
		vkHistory:  map[string]vkHistory{},
		report:     &Report{Seed: cfg.Seed},
	}
	// The catalog every node's manager shares, on virtual time: the
	// propagation delay (a busy maintenance queue; delayed, reordered
	// propagations are what grow stale chains) is drawn from the run's
	// one rand.
	w.reg = core.NewRegistry(core.Options{
		Clock:                  simClock{s},
		PathCompression:        cfg.PathCompression,
		MaxChainHops:           cfg.MaxChainHops,
		MaxPropagationRetry:    retryBudget,
		MaxPendingPropagations: backlogBound,
		PropagationDelay: func() time.Duration {
			if cfg.MaxPropDelay <= 0 {
				return 0
			}
			return time.Duration(s.Rand().Int63n(int64(cfg.MaxPropDelay)))
		},
	})
	byview := core.Def{Name: viewTable, Base: baseTable, ViewKeyColumn: vkCol, Materialized: []string{matCol}}
	if err := w.reg.Define(byview); err != nil {
		panic(err) // a constant definition
	}
	w.def, _ = w.reg.View(viewTable)

	ids := make([]transport.NodeID, cfg.Nodes)
	for i := range ids {
		ids[i] = transport.NodeID(i)
	}
	w.ring = ring.New(ids, 16)
	w.durable = cfg.Dir != "" || cfg.Backend != nil
	var root physical.Backend
	if w.durable {
		// SyncAlways: every append is durable when it returns and no
		// background sync ticker runs, keeping the run deterministic.
		// Small segments force rotation and intent-log checkpoints.
		w.walOpts = wal.Options{Policy: wal.SyncAlways, SegmentBytes: 8 << 10}
		root = cfg.Backend
		if root == nil {
			root = physfs.New(cfg.Dir)
		}
	}
	w.nodes = make([]*node.Node, cfg.Nodes)
	w.coords = make([]*coord.Coordinator, cfg.Nodes)
	w.mgrs = make([]*core.Manager, cfg.Nodes)
	w.agents = make([]*antientropy.Agent, cfg.Nodes)
	w.storages = make([]*wal.Storage, cfg.Nodes)
	w.backends = make([]physical.Backend, cfg.Nodes)
	w.faults = make([]*faulty.Backend, cfg.Nodes)
	w.bfs = make([]*backfill.Controller, cfg.Nodes)
	for _, id := range ids {
		if w.durable {
			w.backends[id] = physical.Sub(root, fmt.Sprintf("node-%d", id))
			if p := cfg.StorageFaultProb; p > 0 {
				w.faults[id] = faulty.New(w.backends[id], faulty.Options{
					Seed:       cfg.Seed + 7919*int64(id),
					AppendFail: p, SyncFail: p, CreateFail: p, AtomicFail: p, RemoveFail: p,
				})
				w.backends[id] = w.faults[id]
			}
		}
		if _, err := w.openNode(id); err != nil {
			w.report.Err = fmt.Errorf("sim: %w", err)
			w.report.Trace = s.Trace()
			return w.report
		}
	}

	// Continuous invariants, checked inside the scheduler loop. Order
	// matters: structural acyclicity first, then the per-key quiescent
	// oracle (exactly-one-live, chain termination, read-your-writes).
	s.AddInvariant("acyclic-stale-chains", w.checkAcyclic)
	s.AddInvariant("quiescent-row-oracle", w.checkQuiescentRows)
	s.AddInvariant("staleness-pending-consistent", w.checkPendingGauge)
	s.AddInvariant("base-cells-were-written", w.checkBaseCells)

	for c := 0; c < cfg.Clients; c++ {
		c := c
		s.Go(time.Duration(c)*time.Millisecond, fmt.Sprintf("client-%d", c), func() { w.runClient(c) })
	}
	w.scheduleChaos()
	if cfg.AntiEntropyEvery > 0 {
		round := 0
		for at := cfg.AntiEntropyEvery; at < cfg.Duration; at += cfg.AntiEntropyEvery {
			round++
			s.Schedule(at, "antientropy", fmt.Sprintf("round %d", round), w.antiEntropyRound)
		}
	}
	for at, round := hintReplayEvery, 1; at < cfg.Duration; at, round = at+hintReplayEvery, round+1 {
		s.Go(at, fmt.Sprintf("hint-replay round %d", round), w.replayHints)
	}
	if cfg.InjectCycleAt > 0 {
		s.Schedule(cfg.InjectCycleAt, "inject", "pointer cycle", w.injectCycle)
	}
	if cfg.CreateViewAt > 0 {
		s.Schedule(cfg.CreateViewAt, "view-create", "bf", w.activateBF)
		if cfg.DropViewAt > cfg.CreateViewAt {
			s.Go(cfg.DropViewAt, "view-drop bf", w.dropBF)
			if cfg.RecreateViewAt > cfg.DropViewAt {
				s.Schedule(cfg.RecreateViewAt, "view-recreate", "bf", w.activateBF)
			}
		}
	}
	s.Schedule(cfg.Duration, "heal", "all faults", w.healAll)

	err := s.Run()
	if err == nil {
		// Quiesced: converge the replicas, then run the full oracle.
		for i := 0; i < 3; i++ {
			w.antiEntropyRound()
		}
		if err = w.finalCheck(); err != nil {
			s.Record("violation", err.Error())
			w.report.Invariant = "final-oracle"
			w.report.FailedAt = s.Now()
		}
	} else {
		w.report.Invariant, w.report.FailedAt = s.failedInvariant, s.failedAt
	}
	if err != nil {
		err = fmt.Errorf("sim: seed=%d: %w\nreplay: %s", cfg.Seed, err, ReplayCommand(cfg))
	}
	for _, st := range w.storages {
		if st != nil {
			_ = st.Close() // end-of-run cleanup
		}
	}
	for id := range w.nodes {
		w.retireCoord(transport.NodeID(id))
	}
	w.report.Err = err
	for _, m := range w.everyMgr {
		st := m.Stats()
		w.report.Propagations += int(st.Propagations.Load() + st.NoOps.Load())
		w.report.PropagationRetries += int(st.FailedAttempts.Load())
		w.report.Abandoned += int(st.Abandoned.Load())
		w.report.LateTasks += int(st.LateTasks.Load())
		w.report.BackpressureWaits += int(st.BackpressureWaits.Load())
		w.report.SharedLocks += int(st.SharedLocks.Load())
		w.report.HandOffs += int(st.HandOffs.Load())
		w.report.ChainHops += int(st.ChainHops.Load())
		w.report.GhostDetours += int(st.GhostDetours.Load())
		w.report.BaseReads += int(st.BaseReads.Load())
		w.report.Compressions += int(st.Compressions.Load())
	}
	w.report.BackfillLive = w.bfLive
	for _, ctl := range w.everyBF {
		for _, p := range ctl.Progress() {
			w.report.BackfillRowsScanned += int(p.Scanned)
			if p.Resumed {
				w.report.BackfillResumes++
			}
		}
	}
	w.report.Costs = s.classCosts()
	w.report.PropLag = w.reg.Obs().Lag.Snapshot()
	w.report.ChainLen = w.reg.Obs().ChainLen.Snapshot()
	w.report.Events = s.Trace().Len()
	w.report.TraceHash = s.Trace().Hash()
	w.report.Trace = s.Trace()
	return w.report
}

// syncTables is the anti-entropy table set: the base table and the view
// tables, the current backfilled-view generation included. A dropped
// generation falls out immediately, so anti-entropy cannot resurrect
// wiped rows.
func (w *world) syncTables() []string { return append([]string{baseTable}, w.oracleViewTables()...) }

// --- Fault injection -------------------------------------------------------

func (w *world) scheduleChaos() {
	cfg, s, rnd := w.cfg, w.s, w.s.Rand()
	if w.durable && cfg.CrashRestarts > 0 {
		for i := 0; i < cfg.CrashRestarts; i++ {
			id := transport.NodeID(i % cfg.Nodes)
			at := time.Duration(rnd.Int63n(int64(cfg.Duration)))
			s.Go(at, fmt.Sprintf("crash-restart node %d", id), func() { w.crashRestart(id) })
		}
	}
	for i := 0; i < cfg.Crashes; i++ {
		at := time.Duration(rnd.Int63n(int64(cfg.Duration)))
		dur := time.Duration(rnd.Int63n(int64(cfg.MaxCrash))) + time.Millisecond
		id := transport.NodeID(rnd.Intn(cfg.Nodes))
		s.Schedule(at, "crash", fmt.Sprintf("node %d for %v", id, dur), func() { w.fab.SetDown(id, true) })
		s.Schedule(at+dur, "recover", fmt.Sprintf("node %d", id), func() { w.fab.SetDown(id, false) })
	}
	for i := 0; i < cfg.Partitions; i++ {
		at := time.Duration(rnd.Int63n(int64(cfg.Duration)))
		dur := time.Duration(rnd.Int63n(int64(cfg.MaxPartition))) + time.Millisecond
		a := transport.NodeID(rnd.Intn(cfg.Nodes))
		b := transport.NodeID((int(a) + 1 + rnd.Intn(cfg.Nodes-1)) % cfg.Nodes)
		s.Schedule(at, "partition", fmt.Sprintf("%d|%d for %v", a, b, dur), func() { w.fab.Partition(a, b, true) })
		s.Schedule(at+dur, "heal-partition", fmt.Sprintf("%d|%d", a, b), func() { w.fab.Partition(a, b, false) })
	}
}

// openNode builds node id from whatever its backend holds — nothing at
// the start of a run, the survivors of a crash afterwards — and wires it
// into the fabric. Storage is opened and recovered with fault injection
// off: the torn state a crash left behind is the fault being digested;
// recovery itself runs on healthy storage (its reads are never faulted
// anyway, but orphan GC and the fresh WAL segments must not fail
// spuriously). It returns the propagation intents logged but not done.
func (w *world) openNode(id transport.NodeID) (intents []wal.Intent, err error) {
	var st *wal.Storage
	if w.durable {
		if fb := w.faults[id]; fb != nil {
			fb.SetEnabled(false)
		}
		if st, err = wal.OpenStorage(w.backends[id], w.walOpts); err != nil {
			return nil, fmt.Errorf("node %d: open storage: %w", id, err)
		}
	}
	// Storage-engine options are identical across restarts, so a
	// recovered node is indistinguishable from the original.
	n := node.New(node.Options{ID: id, Durable: st,
		LSM: lsm.Options{Seed: w.cfg.Seed + int64(id), FlushBytes: w.cfg.FlushBytes}})
	if st != nil {
		if _, intents, err = n.Recover(); err != nil {
			return nil, fmt.Errorf("node %d: recover: %w", id, err)
		}
		if fb := w.faults[id]; fb != nil && w.s.Now() < w.cfg.Duration {
			fb.SetEnabled(true)
		}
	}
	w.fab.Register(id, n)
	w.nodes[id], w.storages[id] = n, st
	w.agents[id] = antientropy.New(n, w.fab, antientropy.Options{Buckets: 32, Tables: w.syncTables, Peers: w.ring.Nodes})
	// The coordinator that ships, its quorum rounds running on the
	// scheduler (the fabric is a transport.EventCaller). It has no replay
	// ticker — replayHints is scheduled instead — and never reads its
	// clock: timeouts and tickers are all an event fabric has no use for.
	w.coords[id] = coord.New(id, w.ring, w.fab, coord.Options{N: w.cfg.N, HintReplayInterval: -1})
	n.SetPlacement(w.coords[id].ReplicasFor)
	// And the view manager that ships, on that coordinator: its drive
	// loop, back-pressure and lock waits park through the fabric, its
	// timers are scheduler events, the node's storage is its intent log.
	w.mgrs[id] = core.NewManager(w.reg, w.coords[id])
	if st != nil {
		w.mgrs[id].SetIntentLog(st)
	}
	w.everyMgr = append(w.everyMgr, w.mgrs[id])
	w.bfs[id] = w.newBackfill(id)
	w.everyBF = append(w.everyBF, w.bfs[id])
	return intents, nil
}

// The shared registry's constants. retryBudget (MaxPropagationRetry) is
// far beyond what any run needs — faults heal at cfg.Duration, so every
// propagation eventually completes — which makes an abandoned
// propagation a violation in itself. backlogBound
// (MaxPendingPropagations) is small enough that writers do wait for
// slots.
const (
	retryBudget  = 2 * time.Minute
	backlogBound = 3
)

// retireCoord folds a coordinator's counters into the report and shuts
// it down — at the end of the run, or when its node dies: its hints die
// with it, as in a real process.
func (w *world) retireCoord(id transport.NodeID) {
	w.report.Coord.Add(w.coords[id].Stats())
	w.coords[id].Close()
}

// hintReplayEvery is the cadence of hinted-handoff replay during the
// fault window; one more round runs when the faults heal.
const hintReplayEvery = 100 * time.Millisecond

// replayHints is coord's hintLoop as a finite process (so the event
// heap still drains): one delivery attempt for every queued hint.
func (w *world) replayHints() {
	for id := range w.coords {
		w.coords[id].ReplayHints()
	}
}

// crashRestart is the durable-mode kill: the node loses its entire
// volatile state at an arbitrary virtual instant — memtables, index
// fragments, every propagation it was coordinating — and comes back from
// disk alone. The storage is abandoned without a final sync (only what
// the WAL policy made durable survives; under the sim's SyncAlways, that
// is every acknowledged append), a fresh node, coordinator and manager
// are rebuilt from the MANIFEST, run files and WAL tails, and the
// propagation intents that were logged as started but never done are
// replayed through the new manager, proving a crashed coordinator's
// pending view maintenance still converges. It is a process only so that
// closing the dead manager and backfill controller can wait out the
// rounds and fills they were in; everything else happens in its first
// segment, at one instant.
func (w *world) crashRestart(id transport.NodeID) {
	dead, deadBF := w.mgrs[id], w.bfs[id]
	w.retireCoord(id)
	_ = w.storages[id].Abandon()   // crash model: no final sync
	intents, err := w.openNode(id) // replaces the dead node's handler, coordinator and manager
	if err != nil {
		w.s.Fail(fmt.Errorf("crash-restart: %w", err))
		return
	}
	w.fab.SetDown(id, false)
	w.report.CrashRestarts++
	w.s.Record("crash-restart", fmt.Sprintf("node %d recovered, %d intents pending", id, len(intents)))

	// Replay fans out to every view in the catalog at replay time
	// (Manager.Repropagate re-runs buildTasks): a generation created
	// after the intent was logged gets a harmless re-application of
	// current state. Replay is idempotent — LWW cells and the redo-safe
	// promotion make a second or partial application converge.
	mgr := w.mgrs[id]
	for _, it := range intents {
		w.report.IntentsReenqueued++
		w.replaying[it.Row]++
		w.s.Go(0, fmt.Sprintf("replay-intent %d node %d", it.ID, id), func() { w.replayIntent(mgr, it) })
	}
	// The dead incarnation's propagations end cancelled — their intents
	// not marked done, which is why the replay above finds them — its
	// writers and backfill fills fail with ErrClosed until its controller
	// is closed, and the successor's resumes the scan from the checkpoint.
	dead.Close()
	deadBF.Close()
	if w.bfActive && !w.bfDone[id] {
		w.startBF(id)
	}
}

// replayIntent re-enqueues one recovered intent. A replay that cannot
// read its pre-images is what production leaves for the next restart;
// the simulator, which may have none coming, tries again instead — until
// the node dies once more and its successor inherits the intent.
func (w *world) replayIntent(mgr *core.Manager, it wal.Intent) {
	defer func() { w.replaying[it.Row]-- }()
	w.s.chargeTo(w.s.openAccount(classReplay))
	backoff := time.Millisecond
	for attempt := 0; ; attempt++ {
		err := mgr.Repropagate(context.Background(), it)
		if err == nil || errors.Is(err, core.ErrClosed) {
			return
		}
		if attempt > 2000 {
			w.s.Fail(fmt.Errorf("replay of intent %d (base %s) stuck after %d attempts: %w", it.ID, it.Row, attempt, err))
			return
		}
		w.s.Backoff(&backoff, 16*time.Millisecond)
	}
}

func (w *world) healAll() {
	// Storage heals with the network: the drain phase must converge,
	// and the final oracle judges a fault-free quiescent state.
	for _, fb := range w.faults {
		if fb != nil {
			fb.SetEnabled(false)
		}
	}
	for _, n := range w.nodes {
		w.fab.SetDown(n.ID(), false)
	}
	for i := 0; i < w.cfg.Nodes; i++ {
		for j := i + 1; j < w.cfg.Nodes; j++ {
			w.fab.Partition(transport.NodeID(i), transport.NodeID(j), false)
		}
	}
	w.s.Go(0, "hint-replay after heal", w.replayHints)
}

// injectCycle plants a deliberate Definition-3 violation: two view rows
// of one base key pointing at each other at a timestamp that dominates
// every legitimate pointer. The acyclicity invariant must catch it on
// the next sweep, proving the oracle actually bites.
func (w *world) injectCycle() {
	bk := "r0"
	ts := int64(1) << 40
	entries := []model.Entry{
		{Key: model.EncodeKey("cyc-a", model.Qualify(bk, core.ColNext)), Cell: model.Cell{Value: []byte("cyc-b"), TS: ts}},
		{Key: model.EncodeKey("cyc-b", model.Qualify(bk, core.ColNext)), Cell: model.Cell{Value: []byte("cyc-a"), TS: ts}},
	}
	for _, n := range w.nodes {
		n.RestoreTable(viewTable, entries)
	}
}

// antiEntropyRound synchronously reconciles every node pair. Exchanges
// ride the fabric's synchronous Call path — anti-entropy is the one
// component that does — so rounds during faults see (and tolerate)
// unreachable peers.
func (w *world) antiEntropyRound() {
	for _, a := range w.agents {
		a.RunRound()
	}
}

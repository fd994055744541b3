package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"vstore"
	"vstore/internal/clock"
	"vstore/internal/physical"
	physfs "vstore/internal/physical/fs"
)

// perLayerSet collects per-layer metric values; anything a workload
// does not exercise stays 0.
type perLayerSet map[string]float64

func (p perLayerSet) set(name string, v float64) {
	unitOf(perLayer, name) // panics on an undeclared name
	p[name] = v
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Shares of the run's --seconds each traced phase gets.
const (
	untracedShare = 0.2 // public store, one client, closed loop, spans off
	tracedShare   = 0.2 // the same with a span per operation
	rywShare      = 0.2 // view_write only: session read-your-writes pairs
	countShare    = 0.1 // harness stack, top rung only, calls counted
	ladderShare   = 0.3 // every rung, one after the other
)

// tracedRun carries one traced run across its phases.
type tracedRun struct {
	e   *env
	sp  *spec
	ds  *dataset
	tr  *tracer
	pl  perLayerSet
	t   tally
	pub public           // the public store, its oracle and client 0
	cb  *countingBackend // the storage seam under it (durable workload only)
	dir string           // and its directory
}

func (r *tracedRun) share(f float64) time.Duration { return time.Duration(f * float64(r.e.window)) }

// runTraced produces the per-layer metrics of one workload.
func (e *env) runTraced(ctx context.Context, sp *spec) (*result, error) {
	r := &tracedRun{e: e, sp: sp, ds: newDataset(e.rows), tr: newTracer(), pl: perLayerSet{}}
	if err := r.openPublic(ctx); err != nil {
		return nil, err
	}
	defer func() {
		if r.pub.db != nil {
			r.pub.db.Close()
		}
		removeDir(r.dir)
	}()
	if err := r.windows(ctx); err != nil {
		return nil, err
	}
	fx, digests, err := r.stackPhases(ctx)
	if err != nil {
		return nil, err
	}
	micro := rungs{dur: e.micro, set: r.pl.set}
	getRowNs, applyNs := micro.storage(sp, e.seed, fx)
	if err := micro.wal(fx); err != nil {
		return nil, err
	}
	micro.concurrency()
	micro.model(fx)
	micro.wire(ctx, r.ds)

	ns := map[string]float64{}
	for name, d := range r.tr.byName() {
		ns[name] = float64(d.quantile(0.50))
		switch name {
		case "client.getview", "client.put", "core.getview", "core.put", "coord.get", "coord.put", "coord.preread", "node.get", "node.put":
			r.pl.set(name+"_us", ns[name]/1e3)
		}
	}
	selfTimes(r.pl, ns, digests, getRowNs, applyNs)
	r.pl.set("trace.spans", float64(len(r.tr.spans)))

	r.t.add(r.pub.c.tally)
	r.t.add(r.pub.m.verify(ctx, r.pub.c.cl, viewName, e.stderr))
	if sp.durable {
		r.pub.db.Close()
		r.pub.db = nil
		if err := r.lifecycle(ctx); err != nil {
			return nil, err
		}
	}

	if e.out != "" {
		data, err := json.Marshal(r.tr.spans)
		if err != nil {
			return nil, err
		}
		name := filepath.Base(e.out) + "." + sp.name + ".spans.json"
		if err := physfs.New(filepath.Dir(e.out)).WriteFileAtomic(name, data); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	res := &result{Correct: r.t.failed == 0, Attempted: r.t.attempted, Failed: r.t.failed, Metrics: map[string]metric{}}
	fmt.Fprintf(e.stderr, "%s seed=%d rows=%d traced, one client, %d spans, %d checks, %d failed\n",
		sp.name, e.seed, e.rows, len(r.tr.spans), r.t.attempted, r.t.failed)
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{Value: r.pl[d.name], Unit: d.unit}
		fmt.Fprintf(e.stderr, "  %-40s %16.4f %s\n", d.name, r.pl[d.name], d.unit)
	}
	return res, nil
}

// openPublic sets up the public store, on a counting backend when the
// workload is durable.
func (r *tracedRun) openPublic(ctx context.Context) error {
	var backend vstore.Backend
	if r.sp.durable {
		r.dir = r.e.newDir(r.sp)
		r.cb = newCountingBackend(vstore.FSBackend(r.dir))
		backend = r.cb
	}
	db, _, err := setup(ctx, storeConfig(r.sp, r.e.seed, backend), r.ds)
	if err != nil {
		removeDir(r.dir)
		return fmt.Errorf("setup %s: %w", r.sp.name, err)
	}
	r.pub = public{db: db, m: newOracle(r.ds), c: newClients(db, r.e.seed)[0]}
	return nil
}

// pureLoop issues e.allocOps operations of one kind from one
// goroutine on the workload's key distribution, waits for their
// maintenance, and returns the process's heap allocations per
// operation.
func (r *tracedRun) pureLoop(ctx context.Context, kind opKind) (float64, error) {
	c, m := r.pub.c, r.pub.m
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < r.e.allocOps; i++ {
		_, _, ok := c.do(ctx, m, kind, r.sp.key(c, kind, m.ds.rows))
		c.attempted++
		if !ok {
			c.failed++
		}
	}
	if err := r.pub.db.QuiesceViews(ctx); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(r.e.allocOps), nil
}

// windows runs the closed-loop phases on the public store with one
// client: loaded latencies, every count the public surface exposes and,
// for the durable workload, the storage seam's counters.
func (r *tracedRun) windows(ctx context.Context) error {
	db, m, pl := r.pub.db, r.pub.m, r.pl
	one := []*client{r.pub.c}
	runPhase(ctx, db, r.sp, one, m, r.e.warmup, nil)
	var phys backendCounts
	if r.cb != nil {
		phys = r.cb.snapshot()
	}
	untraced := runPhase(ctx, db, r.sp, one, m, r.share(untracedShare), nil)
	if r.cb != nil {
		phys = r.cb.snapshot().sub(phys)
	}

	// Traced window: the same loop with a span per operation, while a
	// sampler watches the propagation backlog.
	stop := make(chan struct{})
	var pendingMax int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-clock.Wall.After(20 * time.Millisecond):
				pendingMax = max(pendingMax, db.Stats().Views.Pending)
			}
		}
	}()
	traced := runPhase(ctx, db, r.sp, one, m, r.share(tracedShare), r.tr)
	close(stop)
	wg.Wait()
	drainStart := clock.Wall.Now()
	if err := db.QuiesceViews(ctx); err != nil {
		return fmt.Errorf("drain %s: %w", r.sp.name, err)
	}
	pl.set("core.drain_s", clock.Wall.Now().Sub(drainStart).Seconds())
	pl.set("core.pending_max", float64(pendingMax))
	pl.set("trace.overhead_ratio", ratio(traced.prim.mean(), untraced.prim.mean()))
	for name, d := range r.tr.byName() {
		switch name {
		case "window.getview":
			pl.set("client.getview_p50_us", float64(d.quantile(0.50))/1e3)
			pl.set("client.getview_p99_us", float64(d.quantile(0.99))/1e3)
		case "window.get":
			pl.set("client.get_p50_us", float64(d.quantile(0.50))/1e3)
		case "window.put":
			pl.set("client.put_p50_us", float64(d.quantile(0.50))/1e3)
			pl.set("client.put_p99_us", float64(d.quantile(0.99))/1e3)
		}
	}

	// Counts from the untraced window's Stats delta.
	st := untraced.stats
	ops := float64(untraced.ops)
	props := float64(st.Views.Propagations)
	pl.set("core.attempts_per_propagation", ratio(props+float64(st.Views.PropagationFailures), props))
	pl.set("core.noop_ratio", ratio(float64(st.Views.NoOps), props+float64(st.Views.NoOps)))
	pl.set("core.chain_hops_per_propagation", ratio(float64(st.Views.ChainHops), props))
	pl.set("core.chain_hops_saved_per_propagation", ratio(float64(st.Views.ChainHopsSaved), props))
	pl.set("core.propagations_dropped", float64(st.Views.PropagationsDropped))
	pl.set("core.read_spins_per_read", ratio(float64(st.Views.ReadSpins), float64(st.Views.Reads)))
	pl.set("core.view_lag_mean_ms", st.Views.PropagationLag.Mean()/1e3)
	gets := float64(st.Reads.Gets)
	pl.set("coord.digest_read_ratio", ratio(float64(st.Reads.DigestReads), gets))
	pl.set("coord.digest_mismatch_ratio", ratio(float64(st.Reads.DigestMismatches), gets))
	pl.set("coord.read_repairs_per_kop", ratio(1e3*float64(st.Reads.ReadRepairs), ops))
	pl.set("coord.multiget_rows_per_call", ratio(float64(st.Reads.MultiGetRows), float64(st.Reads.MultiGets)))
	pl.set("coord.quorum_fails", float64(st.Writes.QuorumFails))
	pl.set("coord.hints_stored", float64(st.Writes.HintsStored))
	pl.set("lsm.runs_pruned_per_read", ratio(float64(st.Storage.RunsPruned), gets))
	pl.set("wal.append_mean_us", st.Storage.WALAppend.Mean())
	pl.set("wal.sync_mean_us", st.Storage.WALSync.Mean())
	pl.set("wal.syncs", float64(st.Storage.WALSync.Count))
	r.t.failed += int(st.Views.PropagationsDropped + traced.stats.Views.PropagationsDropped)

	var runs, flushes, compactions, tables float64
	for _, table := range []string{baseTable, viewName} {
		for _, ts := range db.TableStats(table) {
			runs += float64(ts.Segments)
			flushes += float64(ts.Flushes)
			compactions += float64(ts.Compactions)
			tables++
		}
	}
	pl.set("lsm.runs_per_table", runs/tables)
	pl.set("lsm.flushes", flushes)
	pl.set("lsm.compactions", compactions)

	// The durable workload's primary operation is Put.
	if puts := float64(len(untraced.prim)); r.cb != nil && puts > 0 {
		pl.set("physical.appends_per_put", float64(phys[cAppends])/puts)
		pl.set("physical.append_bytes_per_put", float64(phys[cAppendBytes])/puts)
		pl.set("physical.syncs_per_s", float64(phys[cSyncs])/untraced.dur.Seconds())
		pl.set("physical.sync_mean_us", ratio(float64(phys[cSyncNs]), float64(phys[cSyncs]))/1e3)
		pl.set("physical.atomic_writes", float64(phys[cAtomics]))
		userBytes := puts * float64(len(r.ds.keys[0])+len(r.ds.secs[0]))
		pl.set("physical.write_amp", float64(phys[cAppendBytes]+phys[cAtomicBytes])/userBytes)
	}

	// A fixed order: the loops draw keys from client 0's stream.
	for _, l := range []struct {
		kind opKind
		name string
	}{{opGetView, "client.allocs_per_getview"}, {opPut, "client.allocs_per_put"}} {
		a, err := r.pureLoop(ctx, l.kind)
		if err != nil {
			return err
		}
		pl.set(l.name, a)
	}

	if r.sp.name == "view_write" {
		// The paper's Figure 7: a session's Put followed by a read of
		// the key it just wrote, timed as one pair.
		ryw := *r.sp
		ryw.primary = opRYW
		ryw.kind = func(*client) opKind { return opRYW }
		w := runPhase(ctx, db, &ryw, one, m, r.share(rywShare), nil)
		pl.set("session.ryw_p50_us", float64(w.prim.quantile(0.50))/1e3)
		pl.set("session.ryw_p99_us", float64(w.prim.quantile(0.99))/1e3)
		pl.set("session.wait_mean_us", w.stats.Views.SessionWait.Mean())
		if err := db.QuiesceViews(ctx); err != nil {
			return err
		}
	}
	return nil
}

// stackPhases opens the harness stack, counts the calls its seams see
// per operation, walks the ladder, and returns node 0's tables as
// fixtures together with the number of digest calls per coordinator read.
func (r *tracedRun) stackPhases(ctx context.Context) (fixtures, float64, error) {
	var backend physical.Backend
	if r.sp.durable {
		dir := r.e.newDir(r.sp)
		defer removeDir(dir)
		backend = physfs.New(dir)
	}
	s, err := openStack(r.sp, r.e.seed, backend)
	if err != nil {
		return fixtures{}, 0, fmt.Errorf("open stack: %w", err)
	}
	defer s.close()
	if err := s.load(ctx, r.ds); err != nil {
		return fixtures{}, 0, fmt.Errorf("load stack: %w", err)
	}
	m := newOracle(r.ds)
	c := newClients(nil, r.e.seed)[0]

	sc, err := s.countWindow(ctx, r.sp, m, c, r.share(countShare), &r.t)
	if err != nil {
		return fixtures{}, 0, err
	}
	pl := r.pl
	ops := float64(sc.ops)
	reads := float64(sc.calls.kind(kindGet) + sc.calls.kind(kindGetDigest) + sc.calls.kind(kindMultiGet))
	pl.set("coord.transport_calls_per_get", ratio(reads, float64(sc.coordGets)))
	pl.set("coord.transport_calls_per_put", ratio(float64(sc.calls.kind(kindPut)), float64(sc.coordPuts)))
	pl.set("core.async_transport_calls_per_put", ratio(float64(sc.calls.view()), float64(sc.puts)))
	pl.set("transport.calls_per_op.get", ratio(float64(sc.calls.kind(kindGet)), ops))
	pl.set("transport.calls_per_op.getdigest", ratio(float64(sc.calls.kind(kindGetDigest)), ops))
	pl.set("transport.calls_per_op.multiget", ratio(float64(sc.calls.kind(kindMultiGet)), ops))
	pl.set("transport.calls_per_op.put", ratio(float64(sc.calls.kind(kindPut)), ops))
	pl.set("node.requests_per_op", ratio(float64(sc.nodeReqs), ops))

	if err := s.ladder(ctx, r.sp, r.pub, m, c, r.tr, r.share(ladderShare), &r.t); err != nil {
		return fixtures{}, 0, err
	}
	if err := s.quiesce(ctx); err != nil {
		return fixtures{}, 0, err
	}
	fx := fixtures{base: s.cl.Nodes[0].TableSnapshot(baseTable), view: s.cl.Nodes[0].TableSnapshot(viewName)}
	return fx, max(pl["coord.transport_calls_per_get"]-1, 0), nil
}

// copyTree copies every file under dir of src to dst and returns the
// bytes copied.
func copyTree(src, dst physical.Backend, dir string) (int64, error) {
	names, err := src.List(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, n := range names {
		full := path.Join(dir, n)
		if strings.HasSuffix(n, "/") {
			sub, err := copyTree(src, dst, full)
			if err != nil {
				return 0, err
			}
			total += sub
			continue
		}
		data, err := src.ReadFile(full)
		if err != nil {
			return 0, err
		}
		f, err := dst.Create(full)
		if err != nil {
			return 0, err
		}
		if _, err := f.Append(data); err != nil {
			_ = f.Close() // the append error is the one to report
			return 0, err
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
		total += int64(len(data))
	}
	return total, nil
}

// recoveries is how many copies of the closed store are reopened;
// recovery.open_s is the median.
const recoveries = 3

// backfillView is the second view defined over the recovered rows.
const backfillView = "bysec2"

// lifecycle is the durable workload's second half: the closed store is
// copied, every copy is reopened cold and verified, and on the last copy
// a second view is backfilled over the recovered rows while a client
// keeps reading the first.
func (r *tracedRun) lifecycle(ctx context.Context) error {
	src := physfs.New(r.dir)
	var opens []float64
	for i := 0; i < recoveries; i++ {
		copyDir := r.e.newDir(r.sp)
		defer removeDir(copyDir)
		diskBytes, err := copyTree(src, physfs.New(copyDir), "")
		if err != nil {
			return fmt.Errorf("copy store: %w", err)
		}
		cb := newCountingBackend(vstore.FSBackend(copyDir))
		start := clock.Wall.Now()
		db, err := vstore.Open(storeConfig(r.sp, r.e.seed, cb))
		if err != nil {
			return fmt.Errorf("recover copy %d: %w", i, err)
		}
		opens = append(opens, clock.Wall.Now().Sub(start).Seconds())
		if err := db.QuiesceViews(ctx); err != nil {
			db.Close()
			return err
		}
		r.t.add(r.pub.m.verify(ctx, db.Client(0), viewName, r.e.stderr))
		if i < recoveries-1 {
			db.Close()
			continue
		}
		r.pl.set("recovery.open_s", median(opens))
		r.pl.set("recovery.records_replayed", float64(db.RecoveryStats().RecordsReplayed))
		userBytes := float64(r.ds.rows * (len(r.ds.keys[0]) + len(r.ds.secs[0]) + len(r.ds.payloads[0])))
		r.pl.set("physical.disk_bytes_per_user_byte", float64(diskBytes)/userBytes)
		err = r.backfill(ctx, db, cb)
		db.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// backfill times CreateView of a second view over the recovered rows
// while client 1 keeps reading the first view about a thousand times a
// second — often enough for a p99, rarely enough that the reader's own
// allocations stay within a few percent of the backfill's.
func (r *tracedRun) backfill(ctx context.Context, db *vstore.DB, cb *countingBackend) error {
	m := r.pub.m
	stop := make(chan struct{})
	rec := newRecorder()
	reader := newClients(db, r.e.seed)[1]
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-clock.Wall.After(time.Millisecond):
			}
			_, d, ok := reader.do(ctx, m, opGetView, r.sp.key(reader, opGetView, r.ds.rows))
			rec.observe(d)
			reader.attempted++
			if !ok {
				reader.failed++
			}
		}
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st0, phys0 := db.Stats(), cb.snapshot()
	start := clock.Wall.Now()
	def := viewDef
	def.Name = backfillView
	err := db.CreateView(def)
	took := clock.Wall.Now().Sub(start)
	runtime.ReadMemStats(&after)
	close(stop)
	wg.Wait()
	if err != nil {
		return fmt.Errorf("backfill: %w", err)
	}
	if err := db.QuiesceViews(ctx); err != nil {
		return err
	}
	st, phys := db.Stats().Delta(st0), cb.snapshot().sub(phys0)
	rows := float64(r.ds.rows)
	r.pl.set("backfill.rows_per_s", rows/took.Seconds())
	r.pl.set("backfill.coord_rounds_per_row", float64(st.Reads.Gets+st.Reads.MultiGets+st.Writes.Puts)/rows)
	r.pl.set("backfill.allocs_per_row", float64(after.Mallocs-before.Mallocs)/rows)
	r.pl.set("backfill.bytes_per_row", float64(after.TotalAlloc-before.TotalAlloc)/rows)
	r.pl.set("backfill.checkpoint_writes", float64(phys[cCheckpoints]))
	r.pl.set("backfill.read_p99_us_during", float64(merge(rec).quantile(0.99))/1e3)
	r.t.add(reader.tally)
	r.t.failed += int(st.Views.PropagationsDropped)
	r.t.add(m.verify(ctx, db.Client(0), backfillView, r.e.stderr))
	return nil
}

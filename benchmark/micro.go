package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"vstore"
	"vstore/internal/clock"
	"vstore/internal/locks"
	"vstore/internal/lsm"
	"vstore/internal/memtable"
	"vstore/internal/model"
	"vstore/internal/physical"
	physmem "vstore/internal/physical/mem"
	"vstore/internal/propagate"
	"vstore/internal/sstable"
	"vstore/internal/transport"
	"vstore/internal/wal"
	"vstore/internal/wire"
)

// Micro rungs: layers that have no place of their own in the read or
// write ladder, or that sit below the lowest call the harness can make
// into a live node, are timed as short loops over inputs cut from the
// workload's own data.

// rungs runs micro loops and files their results. The budget of a whole
// run leaves about a tenth of a second (dur) for each of some thirty
// loops; they report means over 10^3..10^6 calls.
type rungs struct {
	dur time.Duration
	set func(name string, v float64)
}

// loop calls f in batches for about r.dur and returns the mean
// nanoseconds per call. The clock is read once per batch so that a
// nanosecond-scale body is not dominated by the clock.
func (r rungs) loop(batch int, f func(i int)) float64 {
	n := 0
	start := clock.Wall.Now()
	for {
		for j := 0; j < batch; j++ {
			f(n)
			n++
		}
		if el := clock.Wall.Now().Sub(start); el >= r.dur {
			return float64(el) / float64(n)
		}
	}
}

// fixtures are node 0's merged contents of the base and the view table
// after the traced replay, i.e. the workload's own data and chains.
type fixtures struct {
	base, view []model.Entry
}

// rowsOf returns the distinct row names of a sorted entry run.
func rowsOf(entries []model.Entry) []string {
	var rows []string
	for _, e := range entries {
		row, _, err := model.DecodeKey(e.Key)
		if err != nil {
			continue
		}
		if len(rows) == 0 || rows[len(rows)-1] != row {
			rows = append(rows, row)
		}
	}
	return rows
}

// lsmFixture rebuilds one table's store at the workload's flush
// threshold. Entries are fed in shuffled batches: a snapshot is sorted,
// and feeding it in order would give runs with disjoint key ranges that
// bounds-pruning skips, unlike the runs a live node accumulates.
func lsmFixture(flushBytes, seed int64, entries []model.Entry) *lsm.Store {
	shuffled := append([]model.Entry(nil), entries...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	st := lsm.New(lsm.Options{FlushBytes: flushBytes, Seed: seed})
	for len(shuffled) > 0 {
		n := min(len(shuffled), 64)
		_ = st.ApplyEntries(shuffled[:n]) // a memory store's apply cannot fail
		shuffled = shuffled[n:]
	}
	return st
}

// storage times lsm, memtable and sstable on the fixtures and
// returns the mean cost of the two calls a node's handlers make, for
// the ladder's self-time arithmetic.
func (r rungs) storage(sp *spec, seed int64, fx fixtures) (getRowNs, applyNs float64) {
	if len(fx.base) == 0 || len(fx.view) == 0 {
		return 0, 0
	}
	viewRows, baseRows := rowsOf(fx.view), rowsOf(fx.base)
	viewStore := lsmFixture(sp.flushBytes, seed, fx.view)
	baseStore := lsmFixture(sp.flushBytes, seed, fx.base)
	var sink int

	getRowNs = r.loop(16, func(i int) { sink += len(viewStore.GetRow(viewRows[i%len(viewRows)])) })
	r.set("lsm.getrow_us", getRowNs/1e3)
	cols := []string{keyCol}
	r.set("lsm.getcolumns_us", r.loop(16, func(i int) { sink += len(baseStore.GetColumns(baseRows[i%len(baseRows)], cols)) })/1e3)
	ts := clock.Wall.Now().UnixMicro()
	val := []byte(sec(0))
	applyNs = r.loop(16, func(i int) {
		_ = baseStore.Apply(baseRows[i%len(baseRows)], keyCol, model.Cell{Value: val, TS: ts + int64(i)})
	})
	r.set("lsm.apply_us", applyNs/1e3)

	mt := memtable.New(seed)
	r.set("memtable.apply_ns", r.loop(64, func(i int) { e := fx.view[i%len(fx.view)]; mt.Apply(e.Key, e.Cell) }))
	r.set("memtable.get_ns", r.loop(64, func(i int) {
		if _, ok := mt.Get(fx.view[i%len(fx.view)].Key); ok {
			sink++
		}
	}))

	tbl := sstable.Build(fx.view)
	misses := make([][]byte, 0, 1024)
	for i := 0; i < len(viewRows) && len(misses) < cap(misses); i++ {
		misses = append(misses, model.EncodeKey(viewRows[i], "~absent"))
	}
	r.set("sstable.get_hit_ns", r.loop(64, func(i int) {
		if _, ok := tbl.Get(fx.view[i%len(fx.view)].Key); ok {
			sink++
		}
	}))
	r.set("sstable.get_miss_ns", r.loop(64, func(i int) {
		if _, ok := tbl.Get(misses[i%len(misses)]); ok {
			sink++
		}
	}))
	var file []byte
	encNs := r.loop(1, func(int) { file = tbl.EncodeFile() })
	r.set("sstable.encode_mb_per_s", float64(len(file))/encNs*1e3)
	decNs := r.loop(1, func(int) {
		if t, err := sstable.DecodeFile(file); err == nil {
			sink += t.Len()
		}
	})
	r.set("sstable.decode_mb_per_s", float64(len(file))/decNs*1e3)
	r.set("sstable.bytes_per_entry", float64(len(file))/float64(tbl.Len()))
	runtime.KeepAlive(sink)
	return getRowNs, applyNs
}

// wal times the write-ahead log on the in-memory backend: what the
// code costs, without a device. One goroutine appends mutation records
// under the interval policy the store defaults to; two goroutines append under
// SyncAlways and share group commits; a reopened storage replays what
// the first loop wrote.
func (r rungs) wal(fx fixtures) error {
	if len(fx.base) == 0 {
		return nil
	}
	b := physmem.New()
	st, err := wal.OpenStorage(b, wal.Options{Policy: wal.SyncInterval})
	if err != nil {
		return fmt.Errorf("wal rung: %w", err)
	}
	if _, err := st.Recover(); err != nil {
		return fmt.Errorf("wal rung: %w", err)
	}
	ts := st.Table(baseTable)
	var appendErr error
	r.set("wal.log_append_ns", r.loop(16, func(i int) {
		e := fx.base[i%len(fx.base)]
		if err := ts.AppendMutation(e.Key, e.Cell); err != nil {
			appendErr = err
		}
	}))
	if err := st.Close(); err != nil || appendErr != nil {
		return fmt.Errorf("wal rung: append %v, close %v", appendErr, err)
	}
	st, err = wal.OpenStorage(b, wal.Options{Policy: wal.SyncInterval})
	if err != nil {
		return fmt.Errorf("wal rung: %w", err)
	}
	start := clock.Wall.Now()
	rec, err := st.Recover()
	el := clock.Wall.Now().Sub(start)
	if err != nil {
		return fmt.Errorf("wal rung: %w", err)
	}
	_ = st.Close() // only read since it was opened
	if rec.Stats.RecordsReplayed > 0 {
		r.set("wal.replay_records_per_s", float64(rec.Stats.RecordsReplayed)/el.Seconds())
		r.set("wal.bytes_per_record", float64(rec.Stats.BytesReplayed)/float64(rec.Stats.RecordsReplayed))
	}

	lg, err := wal.OpenLog(physical.Sub(physmem.New(), "always"), wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		return fmt.Errorf("wal rung: %w", err)
	}
	payload := make([]byte, 64)
	per := make([]float64, 2)
	var wg sync.WaitGroup
	for g := range per {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			per[g] = r.loop(16, func(int) { _ = lg.Append(payload) })
		}(g)
	}
	wg.Wait()
	r.set("wal.log_append_always_us", (per[0]+per[1])/2/1e3)
	return lg.Close()
}

// ackHandler answers every request at once; it isolates the fabric's
// own cost.
type ackHandler struct{}

func (ackHandler) HandleRequest(transport.NodeID, transport.Request) (transport.Response, error) {
	return transport.AckResp{}, nil
}

// concurrency times the per-row lock table, the propagator pool's
// dispatch, and the fabric alone in front of a handler that does
// nothing: its synchronous call (tens of nanoseconds, below what the
// ladder's difference of two means can resolve) and what the
// asynchronous call adds to it (a goroutine and a channel per message).
func (r rungs) concurrency() {
	lm := locks.NewManager()
	r.set("locks.lock_uncontended_ns", r.loop(64, func(int) { lm.Lock("row")() }))
	per := make([]float64, 2)
	var wg sync.WaitGroup
	for g := range per {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			per[g] = r.loop(64, func(int) { lm.Lock("row")() })
		}(g)
	}
	wg.Wait()
	r.set("locks.lock_contended_ns", (per[0]+per[1])/2)

	pool := propagate.NewPool(8)
	done := make(chan struct{})
	r.set("propagate.dispatch_ns", r.loop(16, func(int) {
		pool.Submit("row", func() { done <- struct{}{} })
		<-done
	}))
	pool.Close()

	d := transport.NewDirect()
	d.Register(0, ackHandler{})
	req := transport.GetReq{Table: baseTable, Row: "r"}
	syncNs := r.loop(64, func(int) { d.CallSync(0, 0, req) })
	asyncNs := r.loop(16, func(int) { <-d.Call(0, 0, req) })
	r.set("transport.callsync_self_ns", syncNs)
	r.set("transport.call_async_self_ns", asyncNs-syncNs)
}

// model times the cell model's hot helpers on a typical view row.
func (r rungs) model(fx fixtures) {
	if len(fx.view) == 0 {
		return
	}
	rows := rowsOf(fx.view)
	var sink int
	r.set("model.encodekey_ns", r.loop(64, func(i int) { sink += len(model.EncodeKey(rows[i%len(rows)], keyCol)) }))
	row := model.Row{}
	for _, e := range fx.view {
		r, col, err := model.DecodeKey(e.Key)
		if err != nil || r != rows[0] {
			break
		}
		row[col] = e.Cell
	}
	r.set("model.rowdigest_ns", r.loop(64, func(int) { sink += int(model.RowDigest(row)) }))
	a, b := fx.view[0].Cell, fx.view[0].Cell
	b.TS++
	r.set("model.merge_ns", r.loop(64, func(int) { sink += len(model.Merge(a, b).Value) }))
	runtime.KeepAlive(sink)
}

// wire times the TCP protocol's building blocks on a GetView
// reply of the workload's shape, and, when a loopback listener can be
// opened, one GetView over a real connection. No workload crosses TCP
// (loopback syscalls would measure the kernel); these numbers exist so
// a codec change has a before and an after.
func (r rungs) wire(ctx context.Context, ds *dataset) {
	var payload []byte
	r.set("wire.encode_getview_ns", r.loop(64, func(i int) {
		var e wire.Encoder
		k := i % ds.rows
		e.Uint(1).Str(ds.secs[k]).Str("").Str(ds.keys[k]).Uint(1).Str(payloadCol).Blob([]byte(ds.payloads[k])).Int(int64(i))
		payload = e.Bytes()
	}))
	var sink int
	r.set("wire.decode_getview_ns", r.loop(64, func(int) {
		d := wire.NewDecoder(payload)
		d.Uint()
		sink += len(d.Str()) + len(d.Str()) + len(d.Str())
		d.Uint()
		sink += len(d.Str()) + len(d.Blob())
		d.Int()
	}))
	var buf bytes.Buffer
	r.set("wire.frame_roundtrip_ns", r.loop(64, func(int) {
		buf.Reset()
		if wire.WriteFrame(&buf, 1, payload) == nil {
			if _, p, err := wire.ReadFrame(&buf); err == nil {
				sink += len(p)
			}
		}
	}))
	runtime.KeepAlive(sink)

	// A small store of its own: the rung is the connection and the
	// codec, not the store behind them.
	small := newDataset(64)
	db, _, err := setup(ctx, vstore.Config{}, small)
	if err != nil {
		return
	}
	defer db.Close()
	srv := wire.NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return // no loopback in this sandbox: the two TCP metrics stay 0
	}
	defer srv.Close()
	cl, err := wire.Dial(addr.String(), time.Second)
	if err != nil {
		return
	}
	defer cl.Close()
	rec := newRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	calls := 0
	r.loop(1, func(i int) {
		start := clock.Wall.Now()
		rows, err := cl.GetView(viewName, small.secs[i%small.rows])
		rec.observe(clock.Wall.Now().Sub(start))
		if err == nil && len(rows) == 1 {
			calls++
		}
	})
	runtime.ReadMemStats(&after)
	if calls == len(rec.samples) {
		r.set("wire.tcp_getview_p50_us", float64(merge(rec).quantile(0.5))/1e3)
		r.set("wire.allocs_per_roundtrip", float64(after.Mallocs-before.Mallocs)/float64(calls))
	}
}

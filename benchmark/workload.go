package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"

	"vstore"
	"vstore/internal/clock"
)

// opKind is one kind of client operation a workload issues.
type opKind uint8

const (
	opGetView opKind = iota // GetView(bysec, current view key of row k)
	opGet                   // Get(data, key k, skey)
	opPut                   // Put(data, key k, {skey: fresh}): moves the row in the view
	opRYW                   // session Put then GetView(fresh): one read-your-writes pair
)

// spec describes one workload: how the store is configured, which kind
// of operation each client issues next and which row it targets.
type spec struct {
	name string
	// flushBytes is Storage.FlushBytes (0 = the engine default, 4 MiB,
	// which holds the whole dataset in the memtable).
	flushBytes int64
	// durable runs the store on the filesystem backend.
	durable bool
	// primary is the operation whose latency the workload reports as
	// op_p50_us / op_p99_us.
	primary opKind
	// kind draws the client's next operation.
	kind func(c *client) opKind
	// ladders are the kinds in the mix that cross the view manager: the
	// traced run walks the ladder of each.
	ladders []opKind
	// key draws the row an operation of the given kind targets. It is
	// defined for every kind, also those the workload's mix never
	// issues, so the traced run can time any call on the workload's
	// key distribution.
	key func(c *client, kind opKind, rows int) int
}

// next draws the client's next operation and its row.
func (sp *spec) next(c *client, rows int) (opKind, int) {
	kind := sp.kind(c)
	return kind, sp.key(c, kind, rows)
}

// smallFlush makes the dataset several times the memtable, so reads
// cross several sstable runs per node and table and compaction runs at
// its default threshold.
const smallFlush = 128 << 10

// hotRows is skew_write's key range: the narrow end of the paper's
// Figure 8 that still completes every propagation. A single hot row
// abandons propagations, which is a failure, not a workload.
const hotRows = 8

// own maps a draw j to the j-th row owned by client c.
func own(c *client, j int) int { return j*clients + c.id }

func alwaysPut(*client) opKind { return opPut }

// ownUniform draws uniformly from the client's own rows.
func ownUniform(c *client, _ opKind, rows int) int { return own(c, c.rng.Intn(rows/clients)) }

var specs = []*spec{
	{
		// Reads only: 90 % view reads, 10 % base reads, uniform over all
		// rows (nobody writes, so ownership does not matter).
		name: "view_read", flushBytes: smallFlush, primary: opGetView, ladders: []opKind{opGetView},
		kind: func(c *client) opKind {
			if c.rng.Intn(10) == 0 {
				return opGet
			}
			return opGetView
		},
		key: func(c *client, kind opKind, rows int) int {
			if kind == opPut || kind == opRYW {
				return ownUniform(c, kind, rows)
			}
			return c.rng.Intn(rows)
		},
	},
	{
		// Back-to-back view-key updates on uniform keys: every Put pays
		// the pre-read, the quorum write and an asynchronous propagation.
		name: "view_write", primary: opPut, ladders: []opKind{opPut}, kind: alwaysPut, key: ownUniform,
	},
	{
		// The same Puts confined to hotRows rows spread over the key
		// space: propagations of one row queue behind each other.
		name: "skew_write", primary: opPut, ladders: []opKind{opPut}, kind: alwaysPut,
		key: func(c *client, _ opKind, rows int) int {
			return own(c, c.rng.Intn(hotRows/clients)*(rows/hotRows))
		},
	},
	{
		// Durable store, half view-key Puts and half view reads. Puts go
		// to rows with k%4 < 2 and reads to the others, so a read's
		// expected result never depends on an unfinished propagation.
		name: "durable_lifecycle", flushBytes: smallFlush, durable: true, primary: opPut, ladders: []opKind{opGetView, opPut},
		kind: func(c *client) opKind {
			if c.rng.Intn(2) == 0 {
				return opPut
			}
			return opGetView
		},
		key: func(c *client, kind opKind, rows int) int {
			j := c.rng.Intn(rows / (2 * clients))
			if kind == opPut || kind == opRYW {
				return own(c, 2*j)
			}
			return own(c, 2*j+1)
		},
	},
}

func findSpec(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// client is one closed-loop caller: it issues its next operation only
// after the previous one returned, with no think time.
type client struct {
	id   int
	rng  *rand.Rand
	cl   *vstore.Client
	sess *vstore.Client // session twin for read-your-writes pairs
	puts int            // Puts issued, for fresh view-key ids
	ops  int            // operations issued in the current phase
	prim *recorder
	aux  *recorder
	tally
}

// newClients binds the closed loop's clients to db (nil: key streams
// only, for the harness-assembled stack). Client i talks to coordinator
// i and draws keys from rand.NewSource(seed*100+i); the store sees only
// the keys.
func newClients(db *vstore.DB, seed int64) []*client {
	cls := make([]*client, clients)
	for i := range cls {
		cls[i] = &client{id: i, rng: rand.New(rand.NewSource(seed*100 + int64(i)))}
		if db != nil {
			cls[i].bind(db)
		}
	}
	return cls
}

// bind points the client at db (again, after a reopen).
func (c *client) bind(db *vstore.DB) {
	c.cl = db.Client(c.id)
	c.sess = c.cl.Session()
}

// freshID returns a view-key id no row has used: above every loaded
// id and disjoint between clients.
func (c *client) freshID(rows int) int {
	id := rows + c.puts*clients + c.id
	c.puts++
	return id
}

var withKeyCol = vstore.WithColumns(keyCol)

// do issues one operation, times the public call alone, checks the
// result against the model and, for an acknowledged Put, updates the
// model.
func (c *client) do(ctx context.Context, m *oracle, kind opKind, k int) (start time.Time, d time.Duration, ok bool) {
	ds := m.ds
	switch kind {
	case opGetView:
		want := m.curSec(k)
		start = clock.Wall.Now()
		rows, err := c.cl.GetView(ctx, viewName, want)
		d = clock.Wall.Now().Sub(start)
		ok = err == nil && m.isRow(rows, k)
	case opGet:
		want := m.curSec(k)
		start = clock.Wall.Now()
		row, err := c.cl.Get(ctx, baseTable, ds.keys[k], withKeyCol)
		d = clock.Wall.Now().Sub(start)
		ok = err == nil && string(row[keyCol].Value) == want
	case opPut:
		id := c.freshID(ds.rows)
		vals := vstore.Values{keyCol: sec(id)}
		start = clock.Wall.Now()
		err := c.cl.Put(ctx, baseTable, ds.keys[k], vals)
		d = clock.Wall.Now().Sub(start)
		if ok = err == nil; ok {
			m.ack(k, id)
		}
	case opRYW:
		id := c.freshID(ds.rows)
		s := sec(id)
		vals := vstore.Values{keyCol: s}
		start = clock.Wall.Now()
		err := c.sess.Put(ctx, baseTable, ds.keys[k], vals)
		var rows []vstore.ViewRow
		if err == nil {
			m.ack(k, id)
			rows, err = c.sess.GetView(ctx, viewName, s)
		}
		d = clock.Wall.Now().Sub(start)
		ok = err == nil && m.isRow(rows, k)
	}
	return start, d, ok
}

// storeConfig is the vstore configuration of a workload: the paper's
// 4 nodes, N=3, W=R=2, on the zero-delay direct transport, so every
// latency is processor time.
func storeConfig(sp *spec, seed int64, backend vstore.Backend) vstore.Config {
	return vstore.Config{
		Storage: vstore.StorageOptions{FlushBytes: sp.flushBytes},
		Backend: backend,
		Seed:    seed,
	}
}

// setup opens a store, defines the schema, loads every row through the
// clients that own them and waits for the view to catch up. It returns
// the time all of that took: the benchmark's setup_s.
func setup(ctx context.Context, cfg vstore.Config, ds *dataset) (*vstore.DB, time.Duration, error) {
	start := clock.Wall.Now()
	db, err := vstore.Open(cfg)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*vstore.DB, time.Duration, error) {
		db.Close()
		return nil, 0, err
	}
	if err := db.CreateTable(baseTable); err != nil {
		return fail(err)
	}
	if err := db.CreateView(viewDef); err != nil {
		return fail(err)
	}
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := db.Client(i)
			for k := i; k < ds.rows; k += clients {
				vals := vstore.Values{keyCol: ds.secs[k], payloadCol: ds.payloads[k]}
				if err := cl.Put(ctx, baseTable, ds.keys[k], vals); err != nil {
					errs[i] = fmt.Errorf("load %s: %w", ds.keys[k], err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fail(err)
		}
	}
	if err := db.QuiesceViews(ctx); err != nil {
		return fail(err)
	}
	return db, clock.Wall.Now().Sub(start), nil
}

// window is what one closed-loop phase measured.
type window struct {
	dur     time.Duration
	prim    merged // latencies of the workload's primary operation
	aux     merged // latencies of its other operations
	ops     int    // operations issued between the two snapshots
	mallocs uint64 // process-wide heap allocations in the phase
	cpu     time.Duration
	stats   vstore.Stats // Stats delta over the phase
}

// opsPerSec is the rate of operations that completed inside the window.
func (w *window) opsPerSec() float64 {
	return float64(len(w.prim)+len(w.aux)) / w.dur.Seconds()
}

// runPhase drives the given clients in a closed loop for dur and
// returns what it measured. A non-nil tracer gets one span per
// operation and requires a single client.
func runPhase(ctx context.Context, db *vstore.DB, sp *spec, cls []*client, m *oracle, dur time.Duration, tr *tracer) *window {
	for _, c := range cls {
		c.ops = 0
		c.prim, c.aux = newRecorder(), newRecorder()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	st0 := db.Stats()
	start := clock.Wall.Now()
	var wg sync.WaitGroup
	for _, c := range cls {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				kind, k := sp.next(c, m.ds.rows)
				t0, d, ok := c.do(ctx, m, kind, k)
				c.ops++
				c.attempted++
				if !ok {
					c.failed++
				}
				if tr != nil {
					tr.add(windowSpan[kind], c.ops, -1, t0, d)
				}
				if t0.Add(d).Sub(start) >= dur {
					return // straddles the end of the window: issued, not recorded
				}
				if kind == sp.primary {
					c.prim.observe(d)
				} else {
					c.aux.observe(d)
				}
			}
		}(c)
	}
	wg.Wait()
	w := &window{dur: dur, cpu: cpuTime() - cpu0}
	w.stats = db.Stats().Delta(st0)
	runtime.ReadMemStats(&after)
	w.mallocs = after.Mallocs - before.Mallocs
	var prims, auxs []*recorder
	for _, c := range cls {
		w.ops += c.ops
		prims = append(prims, c.prim)
		auxs = append(auxs, c.aux)
	}
	w.prim, w.aux = merge(prims...), merge(auxs...)
	return w
}

// cpuTime is the processor time (user + system) the process has used.
// Maintenance runs on goroutines the clients do not wait for, so a
// Put's latency hides most of its cost; processor time per operation
// does not.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

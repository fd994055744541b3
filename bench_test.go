// Benchmarks mirroring the paper's evaluation, one group per figure.
// These run on the zero-latency in-process fabric, so absolute numbers
// measure implementation cost only; the calibrated reproduction of the
// figures (simulated network + node capacity) is `go run ./cmd/mvbench
// -all`, whose output EXPERIMENTS.md records.
package vstore_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"vstore"
	"vstore/internal/metrics"
)

const benchRows = 4096

// benchStorage keeps the LSM engines flushing during benchmark loads so
// reads run against several populated sstable runs rather than an
// all-memtable store; the large CompactAt keeps compaction from
// collapsing the runs back into one.
var benchStorage = vstore.StorageOptions{FlushBytes: 48 << 10, CompactAt: 64}

type benchEnv struct {
	db *vstore.DB
}

// reportPercentiles attaches the DB-side latency distribution for the
// benchmarked op class as extra metrics, so `make bench-all` output
// carries tail latency next to ns/op. The histogram tracks whole-run
// client latency in µs buckets; setup traffic uses other op classes,
// so the snapshot reflects the benchmark loop alone.
func reportPercentiles(b *testing.B, db *vstore.DB, pick func(vstore.Stats) metrics.HistSnapshot) {
	b.Helper()
	hs := pick(db.Stats())
	b.ReportMetric(float64(hs.P50)*1e3, "p50-ns")
	b.ReportMetric(float64(hs.P95)*1e3, "p95-ns")
	b.ReportMetric(float64(hs.P99)*1e3, "p99-ns")
}

func readLatency(st vstore.Stats) metrics.HistSnapshot  { return st.Reads.Latency }
func indexLatency(st vstore.Stats) metrics.HistSnapshot { return st.Reads.IndexLatency }
func viewLatency(st vstore.Stats) metrics.HistSnapshot  { return st.Views.ReadLatency }
func writeLatency(st vstore.Stats) metrics.HistSnapshot { return st.Writes.Latency }

// newBenchEnv loads a base table with unique secondary keys and
// optionally a view and/or native index over them.
func newBenchEnv(b testing.TB, withView, withIndex bool) *benchEnv {
	b.Helper()
	db, err := vstore.Open(vstore.Config{Seed: 1, Storage: benchStorage})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(db.Close)
	ctx := context.Background()
	if err := db.CreateTable("data"); err != nil {
		b.Fatal(err)
	}
	c := db.Client(0)
	for i := 0; i < benchRows; i++ {
		err := c.Put(ctx, "data", key(i), vstore.Values{"skey": sec(i), "payload": "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"})
		if err != nil {
			b.Fatal(err)
		}
	}
	if withIndex {
		if err := db.CreateIndex("data", "skey"); err != nil {
			b.Fatal(err)
		}
	}
	if withView {
		err := db.CreateView(vstore.ViewDef{Name: "bysec", Base: "data", ViewKey: "skey", Materialized: []string{"payload"}})
		if err != nil {
			b.Fatal(err)
		}
	}
	return &benchEnv{db: db}
}

func key(i int) string { return fmt.Sprintf("data-%08d", i) }
func sec(i int) string { return fmt.Sprintf("sec-%08d", i) }

// TestBenchEnvPopulatesRuns guards the benchmark methodology: the read
// benchmarks claim to measure multi-run LSM reads, so the bench storage
// tuning must leave every node with several sstable runs on both the
// base table and the view table.
func TestBenchEnvPopulatesRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the full benchmark dataset")
	}
	env := newBenchEnv(t, true, false)
	for _, table := range []string{"data", "bysec"} {
		for node, st := range env.db.TableStats(table) {
			if st.Segments < 4 {
				t.Errorf("table %q node %d: %d sstable runs, want >= 4", table, node, st.Segments)
			}
		}
	}
}

// --- Figure 3: read latency -------------------------------------------------

func BenchmarkFig3ReadBT(b *testing.B) {
	env := newBenchEnv(b, false, false)
	ctx := context.Background()
	c := env.db.Client(0)
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get(ctx, "data", key(r.Intn(benchRows)), vstore.WithColumns("payload")); err != nil {
			b.Fatal(err)
		}
	}
	reportPercentiles(b, env.db, readLatency)
}

func BenchmarkFig3ReadSI(b *testing.B) {
	env := newBenchEnv(b, false, true)
	ctx := context.Background()
	c := env.db.Client(0)
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := c.QueryIndex(ctx, "data", "skey", sec(r.Intn(benchRows)), vstore.WithColumns("payload"))
		if err != nil || len(rows) != 1 {
			b.Fatalf("rows=%d err=%v", len(rows), err)
		}
	}
	reportPercentiles(b, env.db, indexLatency)
}

func BenchmarkFig3ReadMV(b *testing.B) {
	env := newBenchEnv(b, true, false)
	ctx := context.Background()
	c := env.db.Client(0)
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := c.GetView(ctx, "bysec", sec(r.Intn(benchRows)), vstore.WithColumns("payload"))
		if err != nil || len(rows) != 1 {
			b.Fatalf("rows=%d err=%v", len(rows), err)
		}
	}
	reportPercentiles(b, env.db, viewLatency)
}

// --- Figure 4: read throughput (parallel clients) ---------------------------

func benchParallelRead(b *testing.B, env *benchEnv, pick func(vstore.Stats) metrics.HistSnapshot, op func(c *vstore.Client, r *rand.Rand) error) {
	b.Helper()
	var clientID atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(clientID.Add(1))
		c := env.db.Client(id)
		r := rand.New(rand.NewSource(int64(id)))
		for pb.Next() {
			if err := op(c, r); err != nil {
				b.Error(err)
				return
			}
		}
	})
	reportPercentiles(b, env.db, pick)
}

func BenchmarkFig4ReadThroughputBT(b *testing.B) {
	env := newBenchEnv(b, false, false)
	ctx := context.Background()
	benchParallelRead(b, env, readLatency, func(c *vstore.Client, r *rand.Rand) error {
		_, err := c.Get(ctx, "data", key(r.Intn(benchRows)), vstore.WithColumns("payload"))
		return err
	})
}

func BenchmarkFig4ReadThroughputSI(b *testing.B) {
	env := newBenchEnv(b, false, true)
	ctx := context.Background()
	benchParallelRead(b, env, indexLatency, func(c *vstore.Client, r *rand.Rand) error {
		_, err := c.QueryIndex(ctx, "data", "skey", sec(r.Intn(benchRows)), vstore.WithColumns("payload"))
		return err
	})
}

func BenchmarkFig4ReadThroughputMV(b *testing.B) {
	env := newBenchEnv(b, true, false)
	ctx := context.Background()
	benchParallelRead(b, env, viewLatency, func(c *vstore.Client, r *rand.Rand) error {
		_, err := c.GetView(ctx, "bysec", sec(r.Intn(benchRows)), vstore.WithColumns("payload"))
		return err
	})
}

// --- Figures 5/6: write latency and throughput ------------------------------

func benchWrite(b *testing.B, withView, withIndex bool, parallel bool) {
	env := newBenchEnv(b, withView, withIndex)
	ctx := context.Background()
	writeOnce := func(c *vstore.Client, r *rand.Rand) error {
		return c.Put(ctx, "data", key(r.Intn(benchRows)), vstore.Values{"skey": sec(r.Intn(benchRows * 2))})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if parallel {
		var clientID atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			id := int(clientID.Add(1))
			c := env.db.Client(id)
			r := rand.New(rand.NewSource(int64(id)))
			for pb.Next() {
				if err := writeOnce(c, r); err != nil {
					b.Error(err)
					return
				}
			}
		})
	} else {
		c := env.db.Client(0)
		r := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			if err := writeOnce(c, r); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	ctx2, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	env.db.QuiesceViews(ctx2)
	reportPercentiles(b, env.db, writeLatency)
}

func BenchmarkFig5WriteBT(b *testing.B) { benchWrite(b, false, false, false) }
func BenchmarkFig5WriteSI(b *testing.B) { benchWrite(b, false, true, false) }
func BenchmarkFig5WriteMV(b *testing.B) { benchWrite(b, true, false, false) }

func BenchmarkFig6WriteThroughputBT(b *testing.B) { benchWrite(b, false, false, true) }
func BenchmarkFig6WriteThroughputSI(b *testing.B) { benchWrite(b, false, true, true) }
func BenchmarkFig6WriteThroughputMV(b *testing.B) { benchWrite(b, true, false, true) }

// --- Figure 7: session-guarantee Put/Get pairs -------------------------------

func BenchmarkFig7SessionPairSI(b *testing.B) {
	env := newBenchEnv(b, false, true)
	ctx := context.Background()
	c := env.db.Client(0)
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := r.Intn(benchRows)
		if err := c.Put(ctx, "data", key(k), vstore.Values{"payload": "p"}); err != nil {
			b.Fatal(err)
		}
		if _, err := c.QueryIndex(ctx, "data", "skey", sec(k), vstore.WithColumns("payload")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7SessionPairMV(b *testing.B) {
	env := newBenchEnv(b, true, false)
	ctx := context.Background()
	sc := env.db.Client(0).Session()
	defer sc.EndSession()
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := r.Intn(benchRows)
		if err := sc.Put(ctx, "data", key(k), vstore.Values{"payload": "p"}); err != nil {
			b.Fatal(err)
		}
		if _, err := sc.GetView(ctx, "bysec", sec(k), vstore.WithColumns("payload")); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 8: update skew ----------------------------------------------------

func benchSkew(b *testing.B, width int, compression bool) {
	db, err := vstore.Open(vstore.Config{
		Seed:    1,
		Views:   vstore.ViewOptions{PathCompression: compression},
		Storage: benchStorage,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(db.Close)
	ctx := context.Background()
	if err := db.CreateTable("data"); err != nil {
		b.Fatal(err)
	}
	c := db.Client(0)
	for i := 0; i < width; i++ {
		if err := c.Put(ctx, "data", key(i), vstore.Values{"skey": sec(i)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.CreateView(vstore.ViewDef{Name: "bysec", Base: "data", ViewKey: "skey"}); err != nil {
		b.Fatal(err)
	}
	var clientID atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(clientID.Add(1))
		cc := db.Client(id)
		r := rand.New(rand.NewSource(int64(id)))
		for pb.Next() {
			k := 0
			if width > 1 {
				k = r.Intn(width)
			}
			if err := cc.Put(ctx, "data", key(k), vstore.Values{"skey": sec(r.Intn(1 << 20))}); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	ctx2, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	db.QuiesceViews(ctx2)
}

func BenchmarkFig8SkewHotRow(b *testing.B)   { benchSkew(b, 1, false) }
func BenchmarkFig8SkewNarrow(b *testing.B)   { benchSkew(b, 16, false) }
func BenchmarkFig8SkewWide(b *testing.B)     { benchSkew(b, 4096, false) }
func BenchmarkFig8SkewHotRowPC(b *testing.B) { benchSkew(b, 1, true) }

// Online-view benchmarks: the throughput of a CreateView backfill over
// an already-populated base table, and the MV-read tail latency while a
// backfill is racing the reads versus after the view has gone live.
package vstore_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"vstore"
)

// BenchmarkBackfillThroughput measures a full online backfill: each
// iteration defines a view over the populated base table, waits for
// Backfilling → Live, and drops it again. rows/s is the scan-and-fill
// rate the controller sustains with default batch/parallelism.
func BenchmarkBackfillThroughput(b *testing.B) {
	env := newBenchEnv(b, false, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := env.db.CreateView(vstore.ViewDef{
			Name: "bysec", Base: "data", ViewKey: "skey", Materialized: []string{"payload"},
		})
		if err != nil {
			b.Fatal(err)
		}
		if st, err := env.db.ViewState("bysec"); err != nil || st != vstore.ViewLive {
			b.Fatalf("state after CreateView: %s, %v", st, err)
		}
		b.StopTimer()
		if err := env.db.DropView("bysec"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(benchRows*b.N)/b.Elapsed().Seconds(), "rows/s")
}

// benchReadDuringBackfill reads the live "bysec" view b.N times; when
// racing is set, a second view backfills the same base table in the
// background for the whole loop (small pages, throttled so the scan
// outlasts the benchmark window), so the percentiles show what an
// online backfill costs concurrent MV readers.
func benchReadDuringBackfill(b *testing.B, racing bool) {
	db, err := vstore.Open(vstore.Config{Seed: 1, Storage: benchStorage, Views: vstore.ViewOptions{
		BackfillBatchSize: 16,
		BackfillThrottle:  20 * time.Millisecond,
	}})
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
		if err := c.Put(ctx, "data", key(i), vstore.Values{"skey": sec(i), "payload": "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.CreateView(vstore.ViewDef{Name: "bysec", Base: "data", ViewKey: "skey", Materialized: []string{"payload"}}); err != nil {
		b.Fatal(err)
	}
	if racing {
		err := db.CreateViewAsync(vstore.ViewDef{Name: "race", Base: "data", ViewKey: "skey", Materialized: []string{"payload"}})
		if err != nil {
			b.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := c.GetView(ctx, "bysec", sec(r.Intn(benchRows)), vstore.WithColumns("payload"))
		if err != nil || len(rows) != 1 {
			b.Fatalf("rows=%d err=%v", len(rows), err)
		}
	}
	b.StopTimer()
	reportPercentiles(b, db, viewLatency)
	if racing {
		if st, err := db.ViewState("race"); err == nil && st == vstore.ViewBackfilling {
			if err := db.DropView("race"); err != nil {
				b.Fatal(err)
			}
		} else if err := db.WaitViewLive(ctx, "race"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOnlineViewReadDuringBackfill(b *testing.B) { benchReadDuringBackfill(b, true) }
func BenchmarkOnlineViewReadSteadyState(b *testing.B)    { benchReadDuringBackfill(b, false) }

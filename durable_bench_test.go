// Durability benchmarks: the write-path cost of each WAL fsync policy
// against the in-memory baseline, and cold-start recovery speed. The
// in-memory MV figures must stay flat since the default configuration
// never touches the durable path.
package vstore_test

import (
	"context"
	"testing"

	"vstore"
)

// benchDurablePut measures acknowledged base-table Puts under one
// durability configuration. No view is defined: the point is the WAL
// append/fsync overhead itself, not propagation.
func benchDurablePut(b *testing.B, durable bool, policy vstore.FsyncPolicy) {
	cfg := vstore.Config{Seed: 1}
	if durable {
		cfg.Dir = b.TempDir()
		cfg.Durability = vstore.DurabilityOptions{Fsync: policy}
	}
	db, err := vstore.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(db.Close)
	if err := db.CreateTable("data"); err != nil {
		b.Fatal(err)
	}
	c := db.Client(0)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Put(ctx, "data", key(i%benchRows), vstore.Values{"payload": "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if durable {
		st := db.Stats()
		b.ReportMetric(float64(st.Storage.WALAppend.P99)*1e3, "wal-append-p99-ns")
		b.ReportMetric(float64(st.Storage.WALSync.P99)*1e3, "wal-sync-p99-ns")
	}
}

func BenchmarkDurabilityPutMemory(b *testing.B) { benchDurablePut(b, false, 0) }
func BenchmarkDurabilityPutFsyncOff(b *testing.B) {
	benchDurablePut(b, true, vstore.FsyncOff)
}
func BenchmarkDurabilityPutFsyncInterval(b *testing.B) {
	benchDurablePut(b, true, vstore.FsyncInterval)
}
func BenchmarkDurabilityPutFsyncAlways(b *testing.B) {
	benchDurablePut(b, true, vstore.FsyncAlways)
}

// BenchmarkDurabilityRecovery measures a cold Open against a directory
// holding a written-and-closed cluster: MANIFEST load, run reads and
// WAL tail replay, amortized per recovered record.
func BenchmarkDurabilityRecovery(b *testing.B) {
	dir := b.TempDir()
	const rows = 2048
	{
		db, err := vstore.Open(vstore.Config{Seed: 1, Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if err := db.CreateTable("data"); err != nil {
			b.Fatal(err)
		}
		c := db.Client(0)
		ctx := context.Background()
		for i := 0; i < rows; i++ {
			if err := c.Put(ctx, "data", key(i), vstore.Values{"payload": "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}); err != nil {
				b.Fatal(err)
			}
		}
		db.Close()
	}
	b.ResetTimer()
	var records int
	for i := 0; i < b.N; i++ {
		db, err := vstore.Open(vstore.Config{Seed: 1, Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		rs := db.RecoveryStats()
		if rs.RecordsReplayed == 0 && rs.Runs == 0 {
			b.Fatal("recovery bench recovered nothing")
		}
		records = rs.RecordsReplayed
		b.StopTimer()
		db.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(records), "records")
}

package vstore_test

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"vstore"
	"vstore/internal/trace"
)

// obsCluster is a small cluster with one view, used by the tracing and
// stats tests below.
func obsCluster(t *testing.T, cfg vstore.Config) (*vstore.DB, *vstore.Client) {
	t.Helper()
	db, err := vstore.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	if err := db.CreateTable("ticket"); err != nil {
		t.Fatal(err)
	}
	err = db.CreateView(vstore.ViewDef{Name: "assignedto", Base: "ticket", ViewKey: "assignedto", Materialized: []string{"status"}})
	if err != nil {
		t.Fatal(err)
	}
	return db, db.Client(0)
}

// findTrace returns the newest retained trace whose root op matches.
func findTrace(db *vstore.DB, op string) (trace.SpanData, bool) {
	for _, td := range db.Traces() {
		if td.Op == op {
			return td, true
		}
	}
	return trace.SpanData{}, false
}

// ops collects every op name in a span tree.
func ops(d trace.SpanData) map[string]int {
	m := map[string]int{}
	d.Walk(func(s trace.SpanData) { m[s.Op]++ })
	return m
}

// TestTracedGetViewSpanTree checks the tentpole end to end on the read
// side: a traced GetView produces one retained root whose tree reaches
// the coordinator fan-out, the replica reads on the nodes, and the
// live-key chain walk.
func TestTracedGetViewSpanTree(t *testing.T) {
	db, c := obsCluster(t, vstore.Config{Seed: 1})
	ctx := context.Background()
	if err := c.Put(ctx, "ticket", "t1", vstore.Values{"assignedto": "rliu", "status": "open"}); err != nil {
		t.Fatal(err)
	}
	if err := db.QuiesceViews(ctx); err != nil {
		t.Fatal(err)
	}

	// Untraced calls must retain nothing.
	if _, err := c.GetView(ctx, "assignedto", "rliu"); err != nil {
		t.Fatal(err)
	}
	if n := len(db.Traces()); n != 0 {
		t.Fatalf("untraced GetView retained %d traces, want 0", n)
	}

	rows, err := c.GetView(ctx, "assignedto", "rliu", vstore.WithTracing())
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows=%d err=%v", len(rows), err)
	}
	td, ok := findTrace(db, "client.getview")
	if !ok {
		t.Fatalf("no client.getview trace retained; have %v", db.Traces())
	}
	got := ops(td)
	for _, want := range []string{"coord.get", "node.get"} {
		if got[want] == 0 {
			t.Errorf("span tree missing %q; tree:\n%s", want, td.Format())
		}
	}
	// The replica fan-out must be visible: a quorum read touches one
	// full replica plus digest reads on the rest.
	if got["node.get"]+got["node.digest"] < 2 {
		t.Errorf("span tree shows %d replica spans, want >= 2 (quorum fan-out):\n%s",
			got["node.get"]+got["node.digest"], td.Format())
	}
	if td.Attrs["view"] != "assignedto" || td.Attrs["view_key"] != "rliu" {
		t.Errorf("root attrs = %v, want view/view_key set", td.Attrs)
	}
}

// TestTracedPutLinksPropagation checks the async half of the tentpole:
// a traced Put yields a "propagate" root of its own whose Link is the
// Put's trace ID — causality across the async boundary without
// pretending the propagation is part of the Put's latency.
func TestTracedPutLinksPropagation(t *testing.T) {
	db, c := obsCluster(t, vstore.Config{Seed: 1})
	ctx := context.Background()
	err := c.Put(ctx, "ticket", "t1", vstore.Values{"assignedto": "amy", "status": "open"}, vstore.WithTracing())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.QuiesceViews(ctx); err != nil {
		t.Fatal(err)
	}
	put, ok := findTrace(db, "client.put")
	if !ok {
		t.Fatalf("no client.put trace retained; have %v", db.Traces())
	}
	if got := ops(put); got["coord.put"] == 0 || got["node.put"] == 0 {
		t.Errorf("put span tree missing coordinator or node spans:\n%s", put.Format())
	}
	prop, ok := findTrace(db, "propagate")
	if !ok {
		t.Fatalf("no propagate trace retained; have %v", db.Traces())
	}
	if prop.Link != put.TraceID {
		t.Errorf("propagate root links trace %d, want the put's trace %d", prop.Link, put.TraceID)
	}
	if prop.Attrs["view"] != "assignedto" {
		t.Errorf("propagate attrs = %v, want view=assignedto", prop.Attrs)
	}
	// Algorithm 3's chain walk runs inside propagation — the linked
	// trace must reach it.
	if got := ops(prop); got["chain.walk"] == 0 {
		t.Errorf("propagate span tree missing chain.walk:\n%s", prop.Format())
	}
}

// TestStalenessGauges drives writes through a deliberately slow
// propagation queue and checks the gauge lifecycle: nonzero lag
// percentiles while loaded, pending and oldest-lag back to zero after
// QuiesceViews.
func TestStalenessGauges(t *testing.T) {
	cfg := vstore.Config{Seed: 1}
	cfg.Views.PropagationDelay = func() time.Duration { return 2 * time.Millisecond }
	db, c := obsCluster(t, cfg)
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("t%d", i)
		if err := c.Put(ctx, "ticket", key, vstore.Values{"assignedto": "amy", "status": "open"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.QuiesceViews(ctx); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Views.Propagations == 0 {
		t.Fatal("no propagations completed; gauge test is vacuous")
	}
	if st.Views.PropagationLag.Count != int64(st.Views.Propagations) {
		t.Errorf("lag histogram saw %d propagations, stats counted %d",
			st.Views.PropagationLag.Count, st.Views.Propagations)
	}
	// Each propagation waited at least the injected 2ms in the queue,
	// so the median lag must clear 2000µs.
	if st.Views.PropagationLag.P50 < 2000 {
		t.Errorf("propagation lag p50 = %dµs, want >= 2000 (injected 2ms queue delay)", st.Views.PropagationLag.P50)
	}
	if lag, ok := st.Views.PerViewLag["assignedto"]; !ok || lag.Count == 0 {
		t.Errorf("per-view lag missing for assignedto: %v", st.Views.PerViewLag)
	}
	if st.Views.Pending != 0 || st.Views.OldestPendingLag != 0 {
		t.Errorf("after quiesce: pending=%d oldest=%v, want both zero", st.Views.Pending, st.Views.OldestPendingLag)
	}
	if st.Views.ChainLength.Count == 0 {
		t.Error("chain-length histogram empty after view maintenance")
	}
}

// TestPerCallOptions covers the redesigned options API: per-call
// quorums and column projection, and the Get-needs-columns contract.
func TestPerCallOptions(t *testing.T) {
	db, c := obsCluster(t, vstore.Config{Seed: 1})
	ctx := context.Background()
	err := c.Put(ctx, "ticket", "t1", vstore.Values{"assignedto": "bo", "status": "open", "sev": "2"},
		vstore.WithWriteQuorum(3))
	if err != nil {
		t.Fatal(err)
	}
	row, err := c.Get(ctx, "ticket", "t1", vstore.WithColumns("status"), vstore.WithReadQuorum(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(row) != 1 || string(row["status"].Value) != "open" {
		t.Fatalf("projected read returned %v", row)
	}
	if _, err := c.Get(ctx, "ticket", "t1"); err == nil {
		t.Fatal("Get without WithColumns should fail")
	}
	if err := db.QuiesceViews(ctx); err != nil {
		t.Fatal(err)
	}
	rows, err := c.GetView(ctx, "assignedto", "bo", vstore.WithColumns("status"), vstore.WithReadQuorum(1))
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows=%v err=%v", rows, err)
	}
	if _, ok := rows[0].Columns["sev"]; ok {
		t.Fatal("WithColumns projection leaked extra columns from view read")
	}
	// A bare per-call override (no projection) reads the same row.
	if _, err := c.GetView(ctx, "assignedto", "bo", vstore.WithReadQuorum(1)); err != nil {
		t.Fatal(err)
	}
}

// TestStatsDelta exercises interval accounting: counters and histogram
// counts subtract, gauges stay at their current values.
func TestStatsDelta(t *testing.T) {
	db, c := obsCluster(t, vstore.Config{Seed: 1})
	ctx := context.Background()
	if err := c.Put(ctx, "ticket", "t1", vstore.Values{"assignedto": "cy", "status": "open"}); err != nil {
		t.Fatal(err)
	}
	if err := db.QuiesceViews(ctx); err != nil {
		t.Fatal(err)
	}
	before := db.Stats()
	if _, err := c.GetView(ctx, "assignedto", "cy"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetView(ctx, "assignedto", "cy"); err != nil {
		t.Fatal(err)
	}
	d := db.Stats().Delta(before)
	if d.Views.Reads != 2 {
		t.Errorf("delta view reads = %d, want 2", d.Views.Reads)
	}
	if d.Views.Propagations != 0 {
		t.Errorf("delta propagations = %d, want 0 (none in interval)", d.Views.Propagations)
	}
	if d.Views.ReadLatency.Count != 2 {
		t.Errorf("delta view-read latency count = %d, want 2", d.Views.ReadLatency.Count)
	}
	if d.Writes.Puts != 0 {
		t.Errorf("delta puts = %d, want 0", d.Writes.Puts)
	}
}

// Stats().Views.BaseReads counts the base-row reads a promotion's
// CopyData makes: a ticket's first view row reads its base row, a
// promotion that supersedes the live row copies from that row instead.
func TestStatsBaseReads(t *testing.T) {
	db, c := obsCluster(t, vstore.Config{Seed: 1})
	ctx := context.Background()
	put := func(owner string) {
		t.Helper()
		if err := c.Put(ctx, "ticket", "t1", vstore.Values{"assignedto": owner, "status": "open"}); err != nil {
			t.Fatal(err)
		}
		if err := db.QuiesceViews(ctx); err != nil {
			t.Fatal(err)
		}
	}
	put("cy")
	before := db.Stats()
	if before.Views.BaseReads != 1 {
		t.Fatalf("first creation: %d base reads, want 1", before.Views.BaseReads)
	}
	put("bo")
	d := db.Stats().Delta(before)
	if d.Views.BaseReads != 0 || d.Views.Propagations != 1 {
		t.Fatalf("superseding: %d base reads in %d propagations, want 0 in 1", d.Views.BaseReads, d.Views.Propagations)
	}
	blob, err := json.Marshal(db.Stats())
	if err != nil || !strings.Contains(string(blob), `"base_reads":1`) {
		t.Fatalf("stats JSON lacks base_reads: %s, %v", blob, err)
	}
}

// TestStatsJSONKeys pins the wire names of Stats, the shape `/stats`
// and `mvctl stats` print: every histogram under its group with the
// six snapshot keys, and a sample of counters.
func TestStatsJSONKeys(t *testing.T) {
	blob, err := json.Marshal(vstore.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	var groups map[string]map[string]json.RawMessage
	if err := json.Unmarshal(blob, &groups); err != nil {
		t.Fatal(err)
	}
	hists := map[string][]string{
		"reads":   {"latency_us", "index_latency_us"},
		"writes":  {"latency_us"},
		"views":   {"propagation_lag_us", "chain_length", "read_latency_us", "session_wait_us"},
		"storage": {"wal_append_us", "wal_sync_us"},
	}
	counters := map[string][]string{
		"reads":   {"gets", "digest_reads", "multi_gets", "read_repairs"},
		"writes":  {"puts", "quorum_fails", "hints_stored"},
		"views":   {"propagations", "propagation_failures", "hand_offs", "base_reads", "pending", "oldest_pending_lag_ns"},
		"storage": {"runs_pruned", "recovery_time_ns"},
	}
	if len(groups) != len(hists) {
		t.Errorf("stats groups = %d, want reads, writes, views, storage: %s", len(groups), blob)
	}
	for group, keys := range hists {
		for _, key := range keys {
			var h map[string]json.RawMessage
			if err := json.Unmarshal(groups[group][key], &h); err != nil {
				t.Errorf("%s.%s: %v", group, key, err)
				continue
			}
			for _, k := range []string{"count", "sum", "p50", "p95", "p99", "max"} {
				if _, ok := h[k]; !ok {
					t.Errorf("%s.%s has no %q: %s", group, key, k, groups[group][key])
				}
			}
			if len(h) != 6 {
				t.Errorf("%s.%s has %d keys, want 6: %s", group, key, len(h), groups[group][key])
			}
		}
	}
	for group, keys := range counters {
		for _, key := range keys {
			if _, ok := groups[group][key]; !ok {
				t.Errorf("%s has no %q", group, key)
			}
		}
	}
}

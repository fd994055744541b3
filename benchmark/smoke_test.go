package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	physfs "vstore/internal/physical/fs"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts that a result carries exactly the declared
// metrics, with their units and finite values.
func checkMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: declared but not printed", d.name)
		case m.Unit != d.unit:
			t.Errorf("%s: unit %q, declared %q", d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: value %v", d.name, m.Value)
		}
		if !metricName.MatchString(d.name) {
			t.Errorf("%s: not a valid metric name", d.name)
		}
	}
}

// Every workload, small: the untraced run prints every end-to-end
// metric and none is zero; the traced run prints every per-layer metric,
// and each layer does its work where the README says it does.
func TestSmoke(t *testing.T) {
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			var stderr bytes.Buffer
			e := testEnv(t, &stderr)
			if sp.durable {
				// The traced run's counting window is a fifth of the
				// window; it must span a WAL sync tick (50 ms).
				e.window = 500 * time.Millisecond
			}
			e.out = filepath.Join(t.TempDir(), "runs.jsonl")
			res, err := e.runOne(ctx, sp, false)
			if err != nil {
				t.Fatalf("untraced: %v\n%s", err, stderr.String())
			}
			checkMetrics(t, res, endToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end %s = %v, must never be 0", name, m.Value)
				}
			}

			res, err = e.runOne(ctx, sp, true)
			if err != nil {
				t.Fatalf("traced: %v\n%s", err, stderr.String())
			}
			checkMetrics(t, res, perLayer)
			v := func(name string) float64 { return res.Metrics[name].Value }
			if v("trace.spans") == 0 || v("trace.overhead_ratio") == 0 || v("trace.ladder_closure") == 0 {
				t.Errorf("no trace: spans %v overhead %v closure %v", v("trace.spans"), v("trace.overhead_ratio"), v("trace.ladder_closure"))
			}
			durable := v("wal.syncs") > 0 && v("physical.appends_per_put") > 0 && v("recovery.open_s") > 0 && v("backfill.rows_per_s") > 0
			if durable != sp.durable {
				t.Errorf("wal/physical/recovery/backfill did work: %v; durable workload: %v", durable, sp.durable)
			}
			reads := v("core.getview_us") > 0 && v("coord.get_us") > 0 && v("node.get_us") > 0
			writes := v("core.put_us") > 0 && v("coord.put_us") > 0 && v("node.put_us") > 0 && v("core.attempts_per_propagation") >= 1
			switch sp.name {
			case "view_read":
				if !reads || writes || v("coord.transport_calls_per_get") != 3 {
					t.Errorf("read ladder %v, write ladder %v, calls per get %v", reads, writes, v("coord.transport_calls_per_get"))
				}
			case "view_write", "skew_write":
				if reads || !writes || v("coord.transport_calls_per_put") != 3 {
					t.Errorf("read ladder %v, write ladder %v, calls per put %v", reads, writes, v("coord.transport_calls_per_put"))
				}
			case "durable_lifecycle":
				if !reads || !writes {
					t.Errorf("read ladder %v, write ladder %v", reads, writes)
				}
			}
			// -out keeps both results and, beside them, the traced run's spans.
			recs, err := readRecords(e.out)
			if err != nil || len(recs) != 2 || recs[0].Trace != 0 || recs[1].Trace != 1 || recs[1].Seconds != e.window.Seconds() {
				t.Errorf("records: %v, %+v", err, recs)
			}
			var spans []span
			data, err := physfs.New(filepath.Dir(e.out)).ReadFile("runs.jsonl." + sp.name + ".spans.json")
			if err != nil || json.Unmarshal(data, &spans) != nil || float64(len(spans)) != v("trace.spans") {
				t.Errorf("spans file: %v, %d spans, trace.spans = %v", err, len(spans), v("trace.spans"))
			}
			if (v("session.ryw_p50_us") > 0) != (sp.name == "view_write") {
				t.Errorf("session.ryw_p50_us = %v", v("session.ryw_p50_us"))
			}
		})
	}
}

// BENCHMARK.json is the contract the driver reads; spec.go is what the
// program prints. They must name the same workloads and metrics.
func TestBenchmarkFileMatchesTheProgram(t *testing.T) {
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d implemented", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), program has %q", i, w.Name, len(w.Why), specs[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("declared %d+%d metrics, program prints %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	setupBound := 0.0
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d]: %s (%s), program has %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range bf.EndToEnd {
		if m.Bound > setupBound {
			t.Errorf("%s has a larger bound (%v) than setup_s (%v)", m.Name, m.Bound, setupBound)
		}
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per_layer[%d]: %s (%s, %s), program has %s (%s)", i, m.Name, m.Unit, m.Better, perLayer[i].name, perLayer[i].unit)
		}
	}
	for _, g := range guarded {
		unitOf(perLayer, g.name) // panics on an undeclared name
		for _, w := range g.workloads {
			if findSpec(w) == nil {
				t.Errorf("guarded %s names workload %q", g.name, w)
			}
		}
		if g.bound <= 0 || g.bound > 0.25 {
			t.Errorf("guarded %s: bound %v", g.name, g.bound)
		}
	}
}

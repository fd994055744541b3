package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// quartiles must agree with Python's statistics.quantiles(v, n=4),
// which is what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("1..10: %v %v %v, Python gives 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 1})
	if q1 != -1.25 || q2 != 5.5 || q3 != 12.25 { // two points extrapolate
		t.Errorf("[10 1]: %v %v %v, Python gives -1.25 5.5 12.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", steady, steady, "lower", "pass"},
		{"slower within bound", steady, scale(1.08), "lower", "pass"},
		{"slower beyond bound", steady, scale(1.2), "lower", "regressed"},
		{"faster", steady, scale(0.5), "lower", "pass"},
		{"throughput down", steady, scale(0.8), "higher", "regressed"},
		{"throughput up", steady, scale(1.5), "higher", "pass"},
		{"too noisy to tell", noisy, scale(1.2), "lower", "unresolved"},
	} {
		if got, _, _ := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestRecordsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	for seed := int64(1); seed <= 3; seed++ {
		r := record{Workload: "view_read", Seed: seed, result: result{Correct: true, Attempted: 5,
			Metrics: map[string]metric{"ops_per_s": {Value: float64(100 * seed), Unit: "1/s"}}}}
		if err := appendRecord(path, r); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := readRecords(path)
	if err != nil || len(recs) != 3 || recs[2].Seed != 3 || recs[2].Metrics["ops_per_s"].Value != 300 {
		t.Fatalf("read back %+v, %v", recs, err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", path}, &stdout, &stderr); code != 2 {
		t.Errorf("-compare with one file exited %d, want 2", code)
	}
}

// -compare judges the end-to-end metrics of the untraced records and the
// guarded per-layer metrics of the traced ones, skips a layer the
// workload bypasses, and refuses sets measured with different windows.
func TestCompareJudgesGuardedLayerMetrics(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seconds, recovery float64) string {
		path := filepath.Join(dir, name)
		for seed := int64(1); seed <= 4; seed++ {
			jitter := 1 + float64(seed)/1000
			for _, w := range specs {
				e2e := record{Workload: w.name, Seed: seed, Seconds: seconds, result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{}}}
				for _, d := range endToEnd {
					e2e.Metrics[d.name] = metric{Value: 100 * jitter, Unit: d.unit}
				}
				layers := record{Workload: w.name, Seed: seed, Seconds: seconds, Trace: 1, result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{}}}
				for _, d := range perLayer {
					layers.Metrics[d.name] = metric{Unit: d.unit}
				}
				if w.durable {
					layers.Metrics["recovery.open_s"] = metric{Value: recovery * jitter, Unit: "s"}
				}
				for _, r := range []record{e2e, layers} {
					if err := appendRecord(path, r); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return path
	}
	base, same, slow, short := write("a", 15, 1), write("b", 15, 1.05), write("c", 15, 2), write("d", 5, 1)
	for _, c := range []struct {
		name string
		b    string
		code int
		want string
	}{
		{"within the bound", same, 0, "recovery.open_s"},
		{"restart twice as slow", slow, 1, "regressed"},
		{"different windows", short, 2, ""},
	} {
		var stdout, stderr bytes.Buffer
		if code := compareFiles("..", []string{base, c.b}, &stdout, &stderr); code != c.code || !strings.Contains(stdout.String(), c.want) {
			t.Errorf("%s: exit %d, want %d and %q in\n%s%s", c.name, code, c.code, c.want, stdout.String(), stderr.String())
		}
		if n := strings.Count(stdout.String(), "recovery.open_s"); c.code != 2 && n != 1 {
			t.Errorf("%s: recovery.open_s judged on %d workloads, want 1 (the durable one)", c.name, n)
		}
	}
}

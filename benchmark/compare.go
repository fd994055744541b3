package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sort"

	"vstore/internal/physical"
	physfs "vstore/internal/physical/fs"
)

// record is one run's result as -out stores it: the printed result
// plus what it was a result of.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	result
}

// appendRecord appends r as one JSON line to the file at path.
func appendRecord(path string, r record) error {
	b := physfs.New(filepath.Dir(path))
	name := filepath.Base(path)
	old, err := b.ReadFile(name)
	if err != nil && !physical.IsNotExist(err) {
		return fmt.Errorf("read %s: %w", path, err)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if err := b.WriteFileAtomic(name, append(append(old, line...), '\n')); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

func readRecords(path string) ([]record, error) {
	data, err := physfs.New(filepath.Dir(path)).ReadFile(filepath.Base(path))
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	var recs []record
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// benchmarkFile is BENCHMARK.json, as far as the benchmark reads it.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// readBenchmarkFile loads BENCHMARK.json from dir.
func readBenchmarkFile(dir string) (*benchmarkFile, error) {
	data, err := physfs.New(dir).ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("read BENCHMARK.json: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// quartiles returns the first, second and third quartile of v the way
// Python's statistics.quantiles(v, n=4) does (the exclusive method), so
// the spreads printed here are the ones the driver computes. It needs
// at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// verdict compares one metric on one workload between two sets of
// runs. worse is how far b's median lies on the wrong side of a's, as a
// share of a's; spread is the wider of the two sets' interquartile
// ranges over their medians.
func verdict(a, b []float64, better string, bound float64) (state string, worse, spread float64) {
	a1, a2, a3 := quartiles(a)
	b1, b2, b3 := quartiles(b)
	spread = max(ratio(a3-a1, a2), ratio(b3-b1, b2))
	worse = ratio(b2-a2, a2)
	if better == "higher" {
		worse = -worse
	}
	switch {
	case spread > bound:
		return "unresolved", worse, spread
	case worse > bound:
		return "regressed", worse, spread
	}
	return "pass", worse, spread
}

// compareFiles implements -compare a b: every (end-to-end metric,
// workload) pair is judged with the bound BENCHMARK.json fixes for the
// metric, and every (guarded per-layer metric, workload) pair, when both
// sides hold traced runs, with the bound in guarded. root is
// the directory that holds BENCHMARK.json. Exit code 0 means every pair
// passed.
func compareFiles(root string, args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "benchmark: -compare needs two -out files")
		return 2
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	// workload → metric → values. End-to-end names come from the untraced
	// records and per-layer names from the traced ones; no name is both.
	var sets [2]map[string]map[string][]float64
	seconds := map[float64]bool{}
	for i, path := range args {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		sets[i] = map[string]map[string][]float64{}
		for _, r := range recs {
			seconds[r.Seconds] = true
			if sets[i][r.Workload] == nil {
				sets[i][r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				sets[i][r.Workload][name] = append(sets[i][r.Workload][name], m.Value)
			}
		}
	}
	if len(seconds) > 1 {
		fmt.Fprintln(stderr, "benchmark: the runs were not all measured with the same -seconds")
		return 2
	}
	better := map[string]string{}
	for _, m := range bf.PerLayer {
		better[m.Name] = m.Better
	}
	code := 0
	judge := func(workload, name, better string, bound float64, a, b []float64) {
		state, worse, spread := verdict(a, b, better, bound)
		_, ma, _ := quartiles(a)
		_, mb, _ := quartiles(b)
		fmt.Fprintf(stdout, "%-18s %-24s %14.4f %14.4f %+7.1f%% %7.1f%% %5.0f%%  %s\n",
			workload, name, ma, mb, 100*worse, 100*spread, 100*bound, state)
		if state != "pass" {
			code = 1
		}
	}
	fmt.Fprintf(stdout, "%-18s %-24s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "median a", "median b", "worse", "spread", "bound", "verdict")
	for _, w := range bf.Workloads {
		if len(sets[0][w.Name]) == 0 && len(sets[1][w.Name]) == 0 {
			fmt.Fprintf(stdout, "%-18s no runs on either side\n", w.Name)
			code = 1
			continue
		}
		for _, m := range bf.EndToEnd {
			a, b := sets[0][w.Name][m.Name], sets[1][w.Name][m.Name]
			if len(a) < 2 || len(b) < 2 {
				fmt.Fprintf(stdout, "%-18s %-24s needs at least 2 runs on each side (have %d and %d)\n", w.Name, m.Name, len(a), len(b))
				code = 1
				continue
			}
			judge(w.Name, m.Name, m.Better, m.Bound, a, b)
		}
		for _, g := range guarded {
			a, b := sets[0][w.Name][g.name], sets[1][w.Name][g.name]
			// Sets of untraced runs alone carry no per-layer metrics.
			if !slices.Contains(g.workloads, w.Name) || len(a) < 2 || len(b) < 2 {
				continue
			}
			judge(w.Name, g.name, better[g.name], g.bound, a, b)
		}
	}
	return code
}

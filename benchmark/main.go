// Command benchmark is the repository's one reproducible benchmark.
//
//	bash benchmark/run.sh --workload view_read --seed 1 --seconds 15 --trace 0
//
// measures one workload end to end on the public vstore API and prints
// the end-to-end metrics; --trace 1 replays the same seed's operation
// stream through a ladder of layer-by-layer calls and prints the
// per-layer metrics. README.md in this directory says why each
// workload exists and how the metrics interact.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters. Exit codes:
// 0 a correct run, 1 a run whose results were wrong or a comparison
// that found a regression, 2 bad usage or a run that could not finish.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: view_read, view_write, skew_write, durable_lifecycle, or all")
	seed := fs.Int64("seed", 1, "seed of the generated key streams")
	seconds := fs.Int("seconds", 15, "length of the measured window")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced ladder")
	scratch := fs.String("scratch", ".bench_build/data", "directory for durable stores, removed after the run")
	out := fs.String("out", "", "append the run's result, tagged with workload, seed and seconds, to this JSON-lines file; a traced run also writes its spans to <out>.<workload>.spans.json")
	compare := fs.Bool("compare", false, "compare two -out files (arguments: a.jsonl b.jsonl) against the bounds in BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareFiles(".", fs.Args(), stdout, stderr)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "benchmark: need -seconds >= 1 and -trace 0 or 1")
		return 2
	}
	e := &env{
		seed: *seed, rows: benchRows, setups: benchSetups, allocOps: benchAllocOps, scratch: *scratch, stderr: stderr, out: *out,
		window: time.Duration(*seconds) * time.Second, warmup: time.Second, micro: 100 * time.Millisecond,
	}
	ctx := context.Background()
	if *workload == "all" {
		return e.runAll(ctx, stdout)
	}
	sp := findSpec(*workload)
	if sp == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	return e.runPrint(ctx, sp, *traced == 1, stdout)
}

// runPrint runs one workload one way and prints its result as the last
// line of stdout. The exit code is 1 when the checker found a failure.
func (e *env) runPrint(ctx context.Context, sp *spec, traced bool, stdout io.Writer) int {
	res, err := e.runOne(ctx, sp, traced)
	if err != nil {
		fmt.Fprintf(e.stderr, "benchmark: %v\n", err)
		return 2
	}
	line, _ := json.Marshal(res) // a struct of numbers, strings and bools always marshals
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runOne runs one workload one way and, with -out, files the result.
func (e *env) runOne(ctx context.Context, sp *spec, traced bool) (*result, error) {
	run, trace := e.runUntraced, 0
	if traced {
		run, trace = e.runTraced, 1
	}
	res, err := run(ctx, sp)
	if err != nil || e.out == "" {
		return res, err
	}
	return res, appendRecord(e.out, record{Workload: sp.name, Seed: e.seed, Seconds: e.window.Seconds(), Trace: trace, result: *res})
}

// runAll runs every workload untraced and traced and prints one JSON
// summary. It measures; it claims nothing, so the summary ends with
// "claim": null.
func (e *env) runAll(ctx context.Context, stdout io.Writer) int {
	type entry struct {
		EndToEnd *result `json:"end_to_end"`
		PerLayer *result `json:"per_layer"`
	}
	summary := struct {
		Seed      int64            `json:"seed"`
		Seconds   float64          `json:"seconds"`
		Rows      int              `json:"rows"`
		Workloads map[string]entry `json:"workloads"`
		Claim     *string          `json:"claim"`
	}{Seed: e.seed, Seconds: e.window.Seconds(), Rows: e.rows, Workloads: map[string]entry{}}
	code := 0
	for _, sp := range specs {
		var en entry
		for _, traced := range []bool{false, true} {
			res, err := e.runOne(ctx, sp, traced)
			if err != nil {
				fmt.Fprintf(e.stderr, "benchmark: %v\n", err)
				return 2
			}
			if !res.Correct {
				code = 1
			}
			if traced {
				en.PerLayer = res
			} else {
				en.EndToEnd = res
			}
		}
		summary.Workloads[sp.name] = en
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(summary) // stdout; nothing to do about a closed pipe
	return code
}

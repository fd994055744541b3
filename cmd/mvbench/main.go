// Command mvbench regenerates the evaluation of "Materialized Views
// for Eventually Consistent Record Stores" (Jin, Liu, Salem; DMC/ICDE
// 2013): Figures 3-8, plus the ablations DESIGN.md lists. Results are
// printed as text tables and optionally written as CSV files.
//
// Usage:
//
//	mvbench -all                  # every figure and ablation
//	mvbench -fig 3 -fig 8         # specific figures
//	mvbench -ablation preread     # one ablation
//	mvbench -quick -all           # tiny smoke-test configuration
//	mvbench -all -csv results/    # also write CSVs
//	mvbench -plot results/fig4.csv      # render written CSVs as terminal charts
//	mvbench -plot -log results/fig8.csv # ... on a log x axis (Figure 8's widths)
//
// The testbed is an in-process cluster with a simulated network and
// per-operation service costs standing in for the paper's 4-server
// hardware; see DESIGN.md for the calibration and EXPERIMENTS.md for
// paper-vs-measured numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"vstore/internal/bench"
)

func main() {
	var (
		figs      []string
		ablations []string
		all       = flag.Bool("all", false, "run every figure and ablation")
		quick     = flag.Bool("quick", false, "tiny configuration (smoke test)")
		csvDir    = flag.String("csv", "", "directory to write per-figure CSV files into")
		rows      = flag.Int("rows", 0, "base-table size (default 100000; paper used 1M)")
		duration  = flag.Duration("duration", 0, "measurement window per throughput point (default 2s)")
		fixedOps  = flag.Int("ops", 0, "operations per latency measurement (default 3000; paper used 100k)")
		seed      = flag.Int64("seed", 1, "random seed")
		plot      = flag.Bool("plot", false, "render the CSV files named as arguments as ASCII charts instead of running anything")
		logX      = flag.Bool("log", false, "with -plot: logarithmic x axis (e.g. Figure 8's range widths)")
	)
	flag.Func("fig", "figure number to reproduce (3..8); repeatable", func(v string) error { figs = append(figs, v); return nil })
	flag.Func("ablation", "ablation to run: preread|sync|concurrency|compression|matwidth; repeatable", func(v string) error { ablations = append(ablations, v); return nil })
	flag.Parse()
	if *plot {
		os.Exit(plotFiles(flag.Args(), *logX))
	}

	cfg := bench.Defaults()
	if *quick {
		cfg = bench.Quick()
	}
	if *rows > 0 {
		cfg.Rows = *rows
	}
	if *duration > 0 {
		cfg.Duration = *duration
	}
	if *fixedOps > 0 {
		cfg.FixedOps = *fixedOps
	}
	cfg.Seed = *seed

	type runner struct {
		name string
		fn   func(bench.Config) (bench.Figure, error)
	}
	figRunners := map[string]runner{
		"3": {"Figure 3 (read latency)", bench.Fig3},
		"4": {"Figure 4 (read throughput)", bench.Fig4},
		"5": {"Figure 5 (write latency)", bench.Fig5},
		"6": {"Figure 6 (write throughput)", bench.Fig6},
		"7": {"Figure 7 (session guarantees)", bench.Fig7},
		"8": {"Figure 8 (update skew)", bench.Fig8},
	}
	ablRunners := map[string]runner{
		"preread":     {"Ablation: separate vs combined Get-then-Put", bench.AblationPreRead},
		"sync":        {"Ablation: async vs sync maintenance", bench.AblationSyncMaintenance},
		"concurrency": {"Ablation: locks vs dedicated propagators", bench.AblationConcurrencyMode},
		"compression": {"Ablation: stale-chain path compression", bench.AblationPathCompression},
		"matwidth":    {"Ablation: materialized column count", bench.AblationMaterializedWidth},
	}

	var selected []runner
	if *all {
		for _, k := range []string{"3", "4", "5", "6", "7", "8"} {
			selected = append(selected, figRunners[k])
		}
		for _, k := range []string{"preread", "sync", "concurrency", "compression", "matwidth"} {
			selected = append(selected, ablRunners[k])
		}
	}
	for _, f := range figs {
		r, ok := figRunners[f]
		if !ok {
			fmt.Fprintf(os.Stderr, "mvbench: unknown figure %q (want 3..8)\n", f)
			os.Exit(2)
		}
		selected = append(selected, r)
	}
	for _, a := range ablations {
		r, ok := ablRunners[a]
		if !ok {
			fmt.Fprintf(os.Stderr, "mvbench: unknown ablation %q\n", a)
			os.Exit(2)
		}
		selected = append(selected, r)
	}
	if len(selected) == 0 {
		fmt.Fprintln(os.Stderr, "mvbench: nothing selected; use -all, -fig N or -ablation NAME")
		flag.Usage()
		os.Exit(2)
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "mvbench: %v\n", err)
			os.Exit(1)
		}
	}

	fmt.Printf("testbed: %d nodes, N=%d, W=%d, R=%d, %d rows, net %v±%v, %d workers/node\n\n",
		cfg.Nodes, cfg.N, cfg.W, cfg.R, cfg.Rows, cfg.Latency, cfg.Jitter, cfg.Workers)

	for _, r := range selected {
		fmt.Printf("== %s ==\n", r.name)
		start := time.Now()
		fig, err := r.fn(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mvbench: %s failed: %v\n", r.name, err)
			os.Exit(1)
		}
		fmt.Print(fig.String())
		fmt.Printf("  (took %v)\n\n", time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			path := filepath.Join(*csvDir, fig.ID+".csv")
			if err := os.WriteFile(path, []byte(fig.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "mvbench: writing %s: %v\n", path, err)
				os.Exit(1)
			}
			fmt.Printf("  wrote %s\n\n", path)
		}
	}
}

// plotFiles renders CSV files written by -csv, so the reproduced
// figures can be eyeballed against the paper in the terminal.
func plotFiles(paths []string, logX bool) int {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "usage: mvbench -plot [-log] FILE.csv ...")
		return 2
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		var fig bench.Figure
		if err == nil {
			fig, err = bench.ParseCSV(data)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mvbench: %s: %v\n", path, err)
			return 1
		}
		fmt.Printf("%s\n%s", filepath.Base(path), fig.Plot(logX))
	}
	return 0
}

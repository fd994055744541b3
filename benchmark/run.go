package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"vstore"
	"vstore/internal/clock"
)

// env is what one invocation runs with.
type env struct {
	seed   int64
	rows   int
	window time.Duration // the measured window (--seconds)
	warmup time.Duration // runs before the window, unrecorded
	micro  time.Duration // how long one micro rung loops
	// allocOps is the length of the fixed-count loops that measure
	// allocations per call from a single goroutine.
	allocOps int
	scratch  string // directory for durable stores; removed after use
	stderr   io.Writer
	// out is the JSON-lines file every run's result is appended to; a
	// traced run writes its spans beside it.
	out string
	// setups is how many times a run sets the store up; setup_s is their
	// median and the last store is the one measured.
	setups int
	// flip corrupts one expectation of the oracle before the final
	// verification. Only the checker's negative test sets it.
	flip bool

	dirs int // scratch directories handed out
}

// What every measured run uses; tests build smaller envs.
const (
	benchRows     = 20000 // base rows loaded before the window
	benchSetups   = 3
	benchAllocOps = 1000
)

// result is what a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newDir returns a fresh scratch directory path for a durable store.
func (e *env) newDir(sp *spec) string {
	e.dirs++
	return filepath.Join(e.scratch, fmt.Sprintf("%s-%d-%d-%d", sp.name, e.seed, os.Getpid(), e.dirs))
}

// removeDir deletes a scratch directory.
func removeDir(dir string) {
	//lint:ignore physcheck scratch-directory cleanup of a finished run, not durable state
	_ = os.RemoveAll(dir) // a leftover directory costs space, not correctness
}

// setupMedian sets the store up e.setups times, keeps the last one and
// returns the median set-up time.
func (e *env) setupMedian(ctx context.Context, sp *spec, ds *dataset) (db *vstore.DB, dir string, medianS float64, err error) {
	times := make([]float64, 0, e.setups)
	for i := 0; i < e.setups; i++ {
		if db != nil {
			db.Close()
			removeDir(dir)
			runtime.GC()
		}
		var backend vstore.Backend // nil keeps the store in memory
		if sp.durable {
			dir = e.newDir(sp)
			backend = vstore.FSBackend(dir)
		}
		var took time.Duration
		db, took, err = setup(ctx, storeConfig(sp, e.seed, backend), ds)
		if err != nil {
			removeDir(dir)
			return nil, "", 0, fmt.Errorf("setup %s: %w", sp.name, err)
		}
		times = append(times, took.Seconds())
	}
	return db, dir, median(times), nil
}

// runUntraced is the end-to-end measurement of one workload: set up,
// warm up, measure a closed-loop window, drain, and verify the view
// against the oracle.
func (e *env) runUntraced(ctx context.Context, sp *spec) (*result, error) {
	ds := newDataset(e.rows)
	db, dir, setupS, err := e.setupMedian(ctx, sp, ds)
	if err != nil {
		return nil, err
	}
	defer func() {
		db.Close()
		removeDir(dir)
	}()
	m := newOracle(ds)
	cls := newClients(db, e.seed)
	var t tally
	t.add(m.verify(ctx, cls[0].cl, viewName, e.stderr))

	runPhase(ctx, db, sp, cls, m, e.warmup, nil)
	st0 := db.Stats()
	w := runPhase(ctx, db, sp, cls, m, e.window, nil)
	drainStart := clock.Wall.Now()
	if err := db.QuiesceViews(ctx); err != nil {
		return nil, fmt.Errorf("drain %s: %w", sp.name, err)
	}
	drain := clock.Wall.Now().Sub(drainStart)
	for _, c := range cls {
		t.add(c.tally)
	}
	// A dropped propagation leaves a view row stale for good: it counts
	// as a failed operation even though its Put was acknowledged.
	t.failed += int(db.Stats().Delta(st0).Views.PropagationsDropped)

	if e.flip {
		m.cur[0]++ // row 0 is now expected under a view key nothing was written to
	}
	t.add(m.verify(ctx, cls[0].cl, viewName, e.stderr))
	var shape strings.Builder
	for _, table := range []string{baseTable, viewName} {
		fmt.Fprintf(&shape, "  %s per node:", table)
		for _, ts := range db.TableStats(table) {
			fmt.Fprintf(&shape, " runs=%d flushes=%d compactions=%d;", ts.Segments, ts.Flushes, ts.Compactions)
		}
		shape.WriteByte('\n')
	}
	if sp.durable {
		// Every acknowledged write must be readable after a restart.
		db.Close()
		db, err = vstore.Open(storeConfig(sp, e.seed, vstore.FSBackend(dir)))
		if err != nil {
			return nil, fmt.Errorf("reopen %s: %w", sp.name, err)
		}
		if err := db.QuiesceViews(ctx); err != nil {
			return nil, fmt.Errorf("drain after reopen %s: %w", sp.name, err)
		}
		t.add(m.verify(ctx, db.Client(0), viewName, e.stderr))
	}

	ops := float64(w.ops)
	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	set := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unitOf(endToEnd, name)} }
	set("setup_s", setupS)
	set("ops_per_s", w.opsPerSec())
	set("op_mean_us", w.prim.mean()/1e3)
	set("op_p99_us", float64(w.prim.quantile(0.99))/1e3)
	set("allocs_per_op", float64(w.mallocs)/ops)
	set("cpu_us_per_op", float64(w.cpu.Microseconds())/ops)

	fmt.Fprintf(e.stderr, "%s seed=%d rows=%d clients=%d closed loop, transport delay 0\n", sp.name, e.seed, e.rows, clients)
	fmt.Fprintf(e.stderr, "  window %v: %d ops; primary operation: %d samples, p50 %.1f us, p99 %.1f us, p99.9 %.1f us; %d other samples\n",
		e.window, w.ops, len(w.prim), float64(w.prim.quantile(0.50))/1e3, float64(w.prim.quantile(0.99))/1e3,
		float64(w.prim.quantile(0.999))/1e3, len(w.aux))
	fmt.Fprintf(e.stderr, "  drain %.3fs, view lag mean %.3f ms over %d propagations, %.2f attempts each; %d checks, %d failed\n",
		drain.Seconds(), w.stats.Views.PropagationLag.Mean()/1e3, w.stats.Views.PropagationLag.Count,
		ratio(float64(w.stats.Views.Propagations+w.stats.Views.PropagationFailures), float64(w.stats.Views.Propagations)), t.attempted, t.failed)
	fmt.Fprint(e.stderr, shape.String())
	return res, nil
}

// Package workload generates the key sequences and records the
// benchmark harness drives through the store: uniform and zipfian key
// choices over configurable populations, the bounded key ranges of the
// paper's update-skew experiment (Figure 8), and closed-loop client
// execution with latency/throughput measurement.
package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"vstore/internal/clock"
	"vstore/internal/metrics"
)

// wall is the load driver's time source. Workloads deliberately
// measure *real* latency and throughput, so this is the explicit
// wall clock, not an injected one.
var wall = clock.Wall

// KeyChooser picks keys for operations.
type KeyChooser interface {
	// Next returns the next key using the provided per-client random
	// source.
	Next(r *rand.Rand) string
}

// Uniform picks uniformly from N keys with the given prefix.
type Uniform struct {
	N      int
	Prefix string
}

// Next implements KeyChooser.
func (u Uniform) Next(r *rand.Rand) string {
	return fmt.Sprintf("%s%08d", u.Prefix, r.Intn(u.N))
}

// Zipf picks from N keys with zipfian skew (s > 1; larger = more
// skewed). The hottest key is index 0.
type Zipf struct {
	N      int
	S      float64
	Prefix string

	mu   sync.Mutex
	zips map[*rand.Rand]*rand.Zipf
}

// Next implements KeyChooser.
func (z *Zipf) Next(r *rand.Rand) string {
	z.mu.Lock()
	if z.zips == nil {
		z.zips = map[*rand.Rand]*rand.Zipf{}
	}
	zf := z.zips[r]
	if zf == nil {
		s := z.S
		if s <= 1 {
			s = 1.1
		}
		zf = rand.NewZipf(r, s, 1, uint64(z.N-1))
		z.zips[r] = zf
	}
	z.mu.Unlock()
	return fmt.Sprintf("%s%08d", z.Prefix, zf.Uint64())
}

// Range picks uniformly from the first Width keys of a population —
// the paper's Figure 8 workload, where narrowing Width concentrates
// all updates on fewer and fewer rows (Width 1 = a single row).
type Range struct {
	Width  int
	Prefix string
}

// Next implements KeyChooser.
func (g Range) Next(r *rand.Rand) string {
	if g.Width <= 1 {
		return fmt.Sprintf("%s%08d", g.Prefix, 0)
	}
	return fmt.Sprintf("%s%08d", g.Prefix, r.Intn(g.Width))
}

// Key formats the i-th key of a population, matching the choosers'
// format (for loaders).
func Key(prefix string, i int) string { return fmt.Sprintf("%s%08d", prefix, i) }

// Result summarizes a closed-loop run.
type Result struct {
	// Throughput is successful operations per second over the
	// measured window.
	Throughput float64
	// Latency summarizes successful operation latencies in nanoseconds.
	Latency metrics.HistSnapshot
	// Errors counts failed operations.
	Errors int64
	// Elapsed is the measured wall-clock window.
	Elapsed time.Duration
}

// RunClosedLoop executes op in a closed loop from `clients` goroutines
// for the given duration (after a warmup that is measured into
// neither throughput nor latency). Each client gets a deterministic
// random source derived from seed.
func RunClosedLoop(clients int, warmup, duration time.Duration, seed int64, op func(client int, r *rand.Rand) error) Result {
	if clients <= 0 {
		clients = 1
	}
	var (
		hist      metrics.AtomicHist // shared by every client, lock-free
		errs      atomic.Int64
		succeeded atomic.Int64
		measuring atomic.Bool
		stop      atomic.Bool
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + int64(c)*7919))
			for !stop.Load() {
				start := wall.Now()
				err := op(c, r)
				if !measuring.Load() {
					continue
				}
				if err != nil {
					errs.Add(1)
					continue
				}
				succeeded.Add(1)
				hist.Observe(int64(wall.Now().Sub(start)))
			}
		}(c)
	}
	wall.Sleep(warmup)
	measuring.Store(true)
	begin := wall.Now()
	wall.Sleep(duration)
	measuring.Store(false)
	elapsed := wall.Now().Sub(begin)
	stop.Store(true)
	wg.Wait()
	return Result{
		Throughput: float64(succeeded.Load()) / elapsed.Seconds(),
		Latency:    hist.Snapshot(),
		Errors:     errs.Load(),
		Elapsed:    elapsed,
	}
}

// RunFixedOps executes exactly n operations from a single client and
// returns their latency profile — the paper's latency methodology
// ("we ran a single client until it had completed 100,000 requests").
func RunFixedOps(n int, seed int64, op func(r *rand.Rand) error) Result {
	var hist metrics.AtomicHist
	r := rand.New(rand.NewSource(seed))
	var errs int64
	begin := wall.Now()
	for i := 0; i < n; i++ {
		start := wall.Now()
		if err := op(r); err != nil {
			errs++
			continue
		}
		hist.Observe(int64(wall.Now().Sub(start)))
	}
	elapsed := wall.Now().Sub(begin)
	lat := hist.Snapshot()
	return Result{
		Throughput: float64(lat.Count) / elapsed.Seconds(),
		Latency:    lat,
		Errors:     errs,
		Elapsed:    elapsed,
	}
}

// Mean returns the mean latency of the successful operations.
func (r Result) Mean() time.Duration { return time.Duration(r.Latency.Mean()) }

// Summary renders the latency profile on one line, to the microsecond.
// Percentiles and max are bucket upper edges, at most 1/16 high.
func (r Result) Summary() string {
	us := func(ns int64) time.Duration { return time.Duration(ns).Round(time.Microsecond) }
	l := r.Latency
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		l.Count, r.Mean().Round(time.Microsecond), us(l.P50), us(l.P95), us(l.P99), us(l.Max))
}

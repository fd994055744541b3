package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"vstore"
	"vstore/internal/workload"
)

// Config parameterizes the reproduction testbed. Defaults() mirrors
// the paper's setup at laptop scale; Quick() shrinks everything for CI
// and Go benchmarks.
type Config struct {
	// Nodes and N are the cluster shape. Paper: 4 nodes, N=3.
	Nodes int
	N     int
	// W and R are the client quorums.
	W, R int
	// Rows is the base-table population. Paper: 1,000,000.
	Rows int
	// ClientCounts is the concurrency sweep of Figures 4 and 6.
	ClientCounts []int
	// Duration and Warmup bound each closed-loop throughput point.
	Duration time.Duration
	Warmup   time.Duration
	// FixedOps is the single-client operation count for the latency
	// figures (paper: 100,000).
	FixedOps int
	// PairsPerGap and Gaps drive the session-guarantee experiment
	// (Figure 7).
	PairsPerGap int
	Gaps        []time.Duration
	// RangeWidths drives the update-skew experiment (Figure 8).
	// Paper: 100,000 down to 1.
	RangeWidths []int
	// SkewClients is Figure 8's client count (paper: 10).
	SkewClients int

	// Network and node-capacity model (the hardware substitution).
	Latency time.Duration
	Jitter  time.Duration
	Workers int
	Service vstore.ServiceTimes

	Seed int64
}

// Defaults returns the paper-shaped testbed at laptop scale. The
// network/service magnitudes are deliberately ~10x a real LAN's: Go's
// sleep granularity is about a millisecond, so sub-millisecond
// parameters would all be rounded up to the same value and the
// *relative* costs — the thing the figures are about — would be
// destroyed. At this scale a simulated microsecond of the paper's
// testbed is roughly ten simulated microseconds here, uniformly, which
// preserves every ratio.
func Defaults() Config {
	return Config{
		Nodes:        4,
		N:            3,
		W:            2,
		R:            2,
		Rows:         50000,
		ClientCounts: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		Duration:     2 * time.Second,
		Warmup:       300 * time.Millisecond,
		FixedOps:     1200,
		PairsPerGap:  25,
		Gaps: []time.Duration{
			10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
			80 * time.Millisecond, 160 * time.Millisecond, 320 * time.Millisecond,
			640 * time.Millisecond, 1000 * time.Millisecond,
		},
		RangeWidths: []int{1, 10, 100, 1000, 10000, 100000},
		SkewClients: 10,
		Latency:     2 * time.Millisecond,
		Jitter:      500 * time.Microsecond,
		Workers:     8,
		Service: vstore.ServiceTimes{
			Read:       500 * time.Microsecond,
			Write:      500 * time.Microsecond,
			IndexRead:  18 * time.Millisecond,
			IndexWrite: 500 * time.Microsecond,
		},
		Seed: 1,
	}
}

// Quick returns a drastically shrunk configuration for tests and Go
// benchmarks: zero network latency, no service costs, small
// populations, sub-second runs. Shapes are still visible; absolute
// numbers are meaningless.
func Quick() Config {
	c := Defaults()
	c.Rows = 2000
	c.ClientCounts = []int{1, 4}
	c.Duration = 150 * time.Millisecond
	c.Warmup = 30 * time.Millisecond
	c.FixedOps = 300
	c.PairsPerGap = 4
	c.Gaps = []time.Duration{time.Millisecond, 8 * time.Millisecond, 32 * time.Millisecond}
	c.RangeWidths = []int{1, 100, 2000}
	c.SkewClients = 4
	c.Latency = 0
	c.Jitter = 0
	c.Workers = 0
	c.Service = vstore.ServiceTimes{}
	return c
}

func (c Config) withDefaults() Config {
	d := Defaults()
	if c.Nodes == 0 {
		c.Nodes = d.Nodes
	}
	if c.N == 0 {
		c.N = d.N
	}
	if c.W == 0 {
		c.W = d.W
	}
	if c.R == 0 {
		c.R = d.R
	}
	if c.Rows == 0 {
		c.Rows = d.Rows
	}
	if len(c.ClientCounts) == 0 {
		c.ClientCounts = d.ClientCounts
	}
	if c.Duration == 0 {
		c.Duration = d.Duration
	}
	if c.Warmup == 0 {
		c.Warmup = d.Warmup
	}
	if c.FixedOps == 0 {
		c.FixedOps = d.FixedOps
	}
	if c.PairsPerGap == 0 {
		c.PairsPerGap = d.PairsPerGap
	}
	if len(c.Gaps) == 0 {
		c.Gaps = d.Gaps
	}
	if len(c.RangeWidths) == 0 {
		c.RangeWidths = d.RangeWidths
	}
	if c.SkewClients == 0 {
		c.SkewClients = d.SkewClients
	}
	return c
}

// Table and column names of the benchmark schema, mirroring the
// paper's single column family with a unique secondary key attribute.
const (
	tableName  = "data"
	secKeyCol  = "skey"
	payloadCol = "payload"
	viewName   = "bysec"
)

// secValue maps row index i to its unique secondary key value.
func secValue(i int) string { return workload.Key("sec-", i) }

// openDB builds a cluster from the config.
func openDB(cfg Config, views vstore.ViewOptions) (*vstore.DB, error) {
	var network *vstore.NetworkSim
	if cfg.Latency > 0 || cfg.Jitter > 0 {
		network = &vstore.NetworkSim{Latency: cfg.Latency, Jitter: cfg.Jitter}
	}
	return vstore.Open(vstore.Config{
		Nodes:             cfg.Nodes,
		ReplicationFactor: cfg.N,
		WriteQuorum:       cfg.W,
		ReadQuorum:        cfg.R,
		Network:           network,
		Workers:           cfg.Workers,
		Service:           cfg.Service,
		Views:             views,
		Seed:              cfg.Seed,
	})
}

// loadRows writes the base population in parallel: row data-i with a
// unique secondary key and a payload, like the paper's 1M-row table.
func loadRows(db *vstore.DB, cfg Config, rows int) error {
	const parallelism = 64
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	errCh := make(chan error, 1)
	payload := make([]byte, 100)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	for i := 0; i < rows; i++ {
		i := i
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			c := db.Client(i)
			err := c.Put(ctx, tableName, workload.Key("data-", i), vstore.Values{
				secKeyCol:  secValue(i),
				payloadCol: string(payload),
			})
			if err != nil {
				select {
				case errCh <- err:
				default:
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return fmt.Errorf("bench: load failed: %w", err)
	default:
		return nil
	}
}

// readScenario builds the shared read testbed: populated base table
// with both a native secondary index and a materialized view over the
// secondary key (reads don't interfere, so one cluster serves BT, SI
// and MV runs).
func readScenario(cfg Config) (*vstore.DB, error) {
	db, err := openDB(cfg, vstore.ViewOptions{})
	if err != nil {
		return nil, err
	}
	if err := db.CreateTable(tableName); err != nil {
		db.Close()
		return nil, err
	}
	if err := loadRows(db, cfg, cfg.Rows); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.CreateIndex(tableName, secKeyCol); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.CreateView(vstore.ViewDef{
		Name: viewName, Base: tableName, ViewKey: secKeyCol, Materialized: []string{payloadCol},
	}); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// writeScenario builds one of the paper's three write testbeds:
// "bt" (bare table), "si" (native index on the updated column), "mv"
// (view keyed by the updated column).
func writeScenario(cfg Config, kind string, views vstore.ViewOptions) (*vstore.DB, error) {
	db, err := openDB(cfg, views)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*vstore.DB, error) { db.Close(); return nil, err }
	if err := db.CreateTable(tableName); err != nil {
		return fail(err)
	}
	if err := loadRows(db, cfg, cfg.Rows); err != nil {
		return fail(err)
	}
	switch kind {
	case "bt":
	case "si":
		if err := db.CreateIndex(tableName, secKeyCol); err != nil {
			return fail(err)
		}
	case "mv":
		if err := db.CreateView(vstore.ViewDef{
			Name: viewName, Base: tableName, ViewKey: secKeyCol,
		}); err != nil {
			return fail(err)
		}
	default:
		return fail(fmt.Errorf("bench: unknown scenario %q", kind))
	}
	return db, nil
}

// readOp returns the closed-loop read operation for an access path.
func readOp(db *vstore.DB, cfg Config, path string) func(client int, r *rand.Rand) error {
	keys := workload.Uniform{N: cfg.Rows, Prefix: "data-"}
	ctx := context.Background()
	switch path {
	case "BT":
		return func(client int, r *rand.Rand) error {
			_, err := db.Client(client).Get(ctx, tableName, keys.Next(r), vstore.WithColumns(payloadCol))
			return err
		}
	case "SI":
		return func(client int, r *rand.Rand) error {
			rows, err := db.Client(client).QueryIndex(ctx, tableName, secKeyCol, secValue(r.Intn(cfg.Rows)), vstore.WithColumns(payloadCol))
			if err == nil && len(rows) != 1 {
				return fmt.Errorf("bench: SI read found %d rows", len(rows))
			}
			return err
		}
	case "MV":
		return func(client int, r *rand.Rand) error {
			rows, err := db.Client(client).GetView(ctx, viewName, secValue(r.Intn(cfg.Rows)), vstore.WithColumns(payloadCol))
			if err == nil && len(rows) != 1 {
				return fmt.Errorf("bench: MV read found %d rows", len(rows))
			}
			return err
		}
	default:
		panic("bench: unknown read path " + path)
	}
}

// writeOp returns the closed-loop update operation of Figures 5/6:
// update the secondary-key column of a uniformly chosen row to a fresh
// value. With separatePreRead the driver first issues the explicit
// view-key Get of the paper's prototype ("Get-then-Put" as two quorum
// rounds, Algorithm 1 lines 2-3); the store itself carries the pre-read
// on the Put, the combination Section IV-C proposes.
func writeOp(db *vstore.DB, cfg Config, separatePreRead bool) func(client int, r *rand.Rand) error {
	keys := workload.Uniform{N: cfg.Rows, Prefix: "data-"}
	ctx := context.Background()
	return func(client int, r *rand.Rand) error {
		c, key := db.Client(client), keys.Next(r)
		if separatePreRead {
			if _, err := c.Get(ctx, tableName, key, vstore.WithColumns(secKeyCol)); err != nil {
				return err
			}
		}
		return c.Put(ctx, tableName, key, vstore.Values{
			secKeyCol: secValue(r.Intn(cfg.Rows * 2)),
		})
	}
}

package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"vstore"
	"vstore/internal/workload"
)

// This file measures the design choices the paper discusses but does
// not evaluate (DESIGN.md's ablation table).

// AblationPreRead compares MV write latency with the prototype's
// separate Get-then-Put against the combined single-round request the
// paper's Section IV-C proposes ("it may be possible to eliminate some
// or all of this additional latency by combining the Put and Get
// operations ... but our prototype does not do so").
func AblationPreRead(cfg Config) (Figure, error) {
	cfg = cfg.withDefaults()
	fig := Figure{
		ID:     "ablation-preread",
		Title:  "MV write latency (ms): separate pre-read vs combined Get-then-Put",
		XLabel: "variant (1=separate 2=combined)",
		YLabel: "mean latency (ms)",
	}
	variants := []struct {
		label    string
		separate bool
	}{
		{"separate", true},
		{"combined", false},
	}
	for i, v := range variants {
		db, err := writeScenario(cfg, "mv", vstore.ViewOptions{})
		if err != nil {
			return Figure{}, err
		}
		op := writeOp(db, cfg, v.separate)
		res := workload.RunFixedOps(cfg.FixedOps, cfg.Seed, func(r *rand.Rand) error { return op(0, r) })
		db.Close()
		if res.Errors > 0 {
			return Figure{}, fmt.Errorf("bench: preread ablation %s had %d errors", v.label, res.Errors)
		}
		fig.Series = append(fig.Series, Series{
			Label: v.label,
			X:     []float64{float64(i + 1)},
			Y:     []float64{ms(res.Mean())},
		})
		fig.Notes = append(fig.Notes, fmt.Sprintf("%s: %s", v.label, res.Summary()))
	}
	return fig, nil
}

// AblationConcurrencyMode reruns the skew experiment (Figure 8) with
// the two concurrency-control options of Section IV-F: the
// coordinator-driven lock service vs dedicated propagators assigned by
// consistent hashing.
func AblationConcurrencyMode(cfg Config) (Figure, error) {
	cfg = cfg.withDefaults()
	fig := Figure{
		ID:     "ablation-concurrency",
		Title:  "Skewed write throughput (req/s): locks vs dedicated propagators",
		XLabel: "range width",
		YLabel: "req/s",
	}
	// Three-point sweep: the hot row, the knee region, and the wide
	// baseline; the backlog bound matches Fig8's so backpressure is
	// comparable.
	cfg.RangeWidths = []int{1, 100, 100000}
	modes := []struct {
		label string
		views vstore.ViewOptions
	}{
		{"locks", vstore.ViewOptions{MaxPendingPropagations: 32}},
		{"propagators", vstore.ViewOptions{DedicatedPropagators: true, MaxPendingPropagations: 32}},
	}
	for _, m := range modes {
		sub, err := fig8(cfg, m.views, "tmp")
		if err != nil {
			return Figure{}, err
		}
		s := sub.Series[0]
		s.Label = m.label
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// AblationPathCompression reruns the skew experiment with and without
// stale-chain path compression (this implementation's extension beyond
// the paper).
func AblationPathCompression(cfg Config) (Figure, error) {
	cfg = cfg.withDefaults()
	fig := Figure{
		ID:     "ablation-compression",
		Title:  "Skewed write throughput (req/s): plain chains vs path compression",
		XLabel: "range width",
		YLabel: "req/s",
	}
	cfg.RangeWidths = []int{1, 100, 100000}
	modes := []struct {
		label string
		views vstore.ViewOptions
	}{
		{"plain", vstore.ViewOptions{MaxPendingPropagations: 32}},
		{"compressed", vstore.ViewOptions{PathCompression: true, MaxPendingPropagations: 32}},
	}
	for _, m := range modes {
		sub, err := fig8(cfg, m.views, "tmp")
		if err != nil {
			return Figure{}, err
		}
		s := sub.Series[0]
		s.Label = m.label
		fig.Series = append(fig.Series, s)
		fig.Notes = append(fig.Notes, fmt.Sprintf("%s: %s", m.label, sub.Notes[0]))
	}
	return fig, nil
}

// AblationMaterializedWidth measures the cost of view-materialized
// columns: the full maintenance latency of a view-key update (run with
// synchronous maintenance so CopyData's work — which grows with the
// number of materialized columns the new live row must carry — lands
// in the measured latency). The paper prices materialized columns
// qualitatively ("additional space overhead ... and additional view
// maintenance overhead"); this puts numbers on it.
func AblationMaterializedWidth(cfg Config) (Figure, error) {
	cfg = cfg.withDefaults()
	fig := Figure{
		ID:     "ablation-matwidth",
		Title:  "MV view-key-update maintenance latency (ms) vs materialized column count",
		XLabel: "materialized columns",
		YLabel: "mean latency (ms), synchronous maintenance",
	}
	ctx := context.Background()
	s := Series{Label: "MV"}
	for _, width := range []int{0, 1, 2, 4, 8} {
		db, err := openDB(cfg, vstore.ViewOptions{SynchronousMaintenance: true})
		if err != nil {
			return Figure{}, err
		}
		if err := db.CreateTable(tableName); err != nil {
			db.Close()
			return Figure{}, err
		}
		// Populate rows carrying `width` extra columns.
		mats := make([]string, 0, width)
		for i := 0; i < width; i++ {
			mats = append(mats, fmt.Sprintf("m%d", i))
		}
		rows := cfg.Rows / 10
		if rows < 100 {
			rows = 100
		}
		loadCtx, cancel := context.WithTimeout(ctx, 5*time.Minute)
		for i := 0; i < rows; i++ {
			vals := vstore.Values{secKeyCol: secValue(i)}
			for _, m := range mats {
				vals[m] = "xxxxxxxxxxxxxxxx"
			}
			if err := db.Client(i).Put(loadCtx, tableName, workload.Key("data-", i), vals); err != nil {
				cancel()
				db.Close()
				return Figure{}, err
			}
		}
		cancel()
		if err := db.CreateView(vstore.ViewDef{
			Name: viewName, Base: tableName, ViewKey: secKeyCol, Materialized: mats,
		}); err != nil {
			db.Close()
			return Figure{}, err
		}
		keys := workload.Uniform{N: rows, Prefix: "data-"}
		res := workload.RunFixedOps(cfg.FixedOps/2, cfg.Seed, func(r *rand.Rand) error {
			return db.Client(0).Put(ctx, tableName, keys.Next(r), vstore.Values{
				secKeyCol: secValue(r.Intn(rows * 2)),
			})
		})
		quiesceCtx, cancel2 := context.WithTimeout(ctx, time.Minute)
		db.QuiesceViews(quiesceCtx)
		cancel2()
		db.Close()
		if res.Errors > 0 {
			return Figure{}, fmt.Errorf("bench: matwidth %d had %d errors", width, res.Errors)
		}
		s.X = append(s.X, float64(width))
		s.Y = append(s.Y, ms(res.Mean()))
	}
	fig.Series = append(fig.Series, s)
	return fig, nil
}

// AblationSyncMaintenance contrasts asynchronous maintenance (the
// paper's choice) with synchronous maintenance (base Put blocks until
// the view is updated), quantifying the latency argument of Section
// IV: "synchronous view maintenance adds latency to Put operations on
// base tables".
func AblationSyncMaintenance(cfg Config) (Figure, error) {
	cfg = cfg.withDefaults()
	fig := Figure{
		ID:     "ablation-sync",
		Title:  "MV write latency (ms): asynchronous vs synchronous maintenance",
		XLabel: "variant (1=async 2=sync)",
		YLabel: "mean latency (ms)",
	}
	variants := []struct {
		label string
		views vstore.ViewOptions
	}{
		{"async", vstore.ViewOptions{}},
		{"sync", vstore.ViewOptions{SynchronousMaintenance: true}},
	}
	for i, v := range variants {
		db, err := writeScenario(cfg, "mv", v.views)
		if err != nil {
			return Figure{}, err
		}
		op := writeOp(db, cfg, false)
		res := workload.RunFixedOps(cfg.FixedOps/2, cfg.Seed, func(r *rand.Rand) error { return op(0, r) })
		db.Close()
		if res.Errors > 0 {
			return Figure{}, fmt.Errorf("bench: sync ablation %s had %d errors", v.label, res.Errors)
		}
		fig.Series = append(fig.Series, Series{
			Label: v.label,
			X:     []float64{float64(i + 1)},
			Y:     []float64{ms(res.Mean())},
		})
		fig.Notes = append(fig.Notes, fmt.Sprintf("%s: %s", v.label, res.Summary()))
	}
	return fig, nil
}

// All runs every figure and ablation, returning them in paper order.
func All(cfg Config) ([]Figure, error) {
	runners := []func(Config) (Figure, error){
		Fig3, Fig4, Fig5, Fig6, Fig7, Fig8,
		AblationPreRead, AblationSyncMaintenance, AblationConcurrencyMode,
		AblationPathCompression, AblationMaterializedWidth,
	}
	out := make([]Figure, 0, len(runners))
	for _, run := range runners {
		f, err := run(cfg)
		if err != nil {
			return out, err
		}
		out = append(out, f)
	}
	return out, nil
}

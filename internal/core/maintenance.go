package core

import (
	"context"
	"fmt"

	"vstore/internal/coord"
	"vstore/internal/model"
)

// This file provides the operational maintenance the paper leaves
// open: versioned views accumulate one stale row per superseded view
// key forever ("update chains can grow longer"), and abandoned
// propagations (coordinator crash, retry timeout) can leave a view
// permanently missing updates. Prune truncates old stale rows; a
// rebuild is a backfill over the existing view
// (Manager.BackfillRow for every base key).

// Prune removes stale rows whose pointer timestamp is older than
// horizonTS from a versioned view, shortening chains that hot rows
// accumulated. entries is the view table's merged storage (all
// replicas).
//
// Safety contract: a stale row is only needed by propagations whose
// pre-read returned its key — i.e. propagations of updates concurrent
// with or older than the row's supersession. The caller must therefore
// choose horizonTS such that no propagation of an update older than
// horizonTS can still be in flight (for example: now minus several
// MaxPropagationRetry periods, with views quiesced). A propagation that
// does race a prune merely fails its guess and retries with a newer
// one, so correctness degrades to extra retries, not corruption; but a
// propagation whose *every* guess was pruned is abandoned.
//
// Live rows, rows still initializing, and chain anchors of base rows
// whose live row is younger than the horizon are never pruned.
func Prune(ctx context.Context, co *coord.Coordinator, def *Def, entries []model.Entry, horizonTS int64, w int) (removed int, err error) {
	rows, err := DecodeVersionedView(entries)
	if err != nil {
		return 0, err
	}
	for _, r := range rows {
		if r.Next.IsNull() || r.Live() {
			continue // unlinked or live
		}
		if r.Next.TS >= horizonTS {
			continue // superseded too recently
		}
		// Tombstone every cell of this base row's entry in the stale
		// view row, at the pointer's own timestamp: the tombstone wins
		// the timestamp tie against the stored cells (deterministic
		// tie-break), while any *newer* legitimate write of this view
		// key still beats the tombstone.
		updates := []model.ColumnUpdate{
			model.Deletion(model.Qualify(r.BaseKey, ColNext), r.Next.TS),
			model.Deletion(model.Qualify(r.BaseKey, ColBase), r.Next.TS),
		}
		for col, cell := range r.Cells {
			updates = append(updates, model.Deletion(model.Qualify(r.BaseKey, col), maxTS(cell.TS, r.Next.TS)))
		}
		for _, m := range []struct {
			col  string
			cell model.Cell
		}{{ColDeleted, r.Deleted}, {ColReady, r.Ready}, {ColPrev, r.Prev}} {
			if m.cell.Exists() {
				updates = append(updates, model.Deletion(model.Qualify(r.BaseKey, m.col), maxTS(m.cell.TS, r.Next.TS)))
			}
		}
		if err := co.Put(ctx, def.Name, r.ViewKey, updates, w); err != nil {
			return removed, fmt.Errorf("core: pruning %q/%q: %w", r.ViewKey, r.BaseKey, err)
		}
		removed++
	}
	return removed, nil
}

func maxTS(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Diagnostics summarizes a versioned view's internal health: how much
// versioning structure has accumulated and how long the stale chains
// are — the numbers an operator watches to schedule Prune.
type Diagnostics struct {
	// LiveRows counts current (self-pointing) rows, including rows
	// marked deleted.
	LiveRows int
	// StaleRows counts superseded rows (chain anchors included).
	StaleRows int
	// DeletedRows counts live rows suppressed by a deletion marker.
	DeletedRows int
	// MaxChainLength is the longest pointer chain from any stale row
	// to its live row.
	MaxChainLength int
	// TotalChainHops sums the chain lengths over all stale rows; the
	// mean chain length is TotalChainHops/StaleRows.
	TotalChainHops int
	// OldestStaleTS is the smallest supersession timestamp among stale
	// rows (a Prune horizon above it reclaims something); NullTS when
	// there are no stale rows.
	OldestStaleTS int64
}

// Diagnose computes Diagnostics from a view table's merged storage.
func Diagnose(entries []model.Entry) (Diagnostics, error) {
	rows, err := DecodeVersionedView(entries)
	if err != nil {
		return Diagnostics{}, err
	}
	d := Diagnostics{OldestStaleTS: model.NullTS}
	for _, chain := range Chains(rows) {
		for vk, r := range chain {
			if r.Live() {
				d.LiveRows++
				if r.Suppressed() {
					d.DeletedRows++
				}
				continue
			}
			d.StaleRows++
			if d.OldestStaleTS == model.NullTS || r.Next.TS < d.OldestStaleTS {
				d.OldestStaleTS = r.Next.TS
			}
			// Hops to the live row; a chain dangling mid-propagation counts
			// what was walked.
			_, hops := FollowChain(chain, vk)
			d.TotalChainHops += hops
			if hops > d.MaxChainLength {
				d.MaxChainLength = hops
			}
		}
	}
	return d, nil
}

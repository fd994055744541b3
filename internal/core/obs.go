package core

import (
	"sync"
	"time"

	"vstore/internal/metrics"
)

// ViewObs holds the live staleness instrumentation for view
// maintenance: the runtime equivalents of the paper's staleness metric
// (Section V measures it offline; a serving cluster needs it as a
// gauge). One ViewObs per Registry, shared by every node's Manager.
type ViewObs struct {
	// Lag records end-to-end propagation latency (Put enqueue to view
	// rows applied) in microseconds, across all views.
	Lag metrics.AtomicHist
	// ChainLen records the number of view rows visited per GetLiveKey
	// chain walk (1 = the guessed key was live).
	ChainLen metrics.AtomicHist

	mu      sync.Mutex
	perView map[string]*metrics.AtomicHist
	// pending maps in-flight propagation IDs to their enqueue time,
	// target view and base key: its size is the pending-propagation
	// depth, its oldest entry the current worst-case staleness bound —
	// overall or per view, which is what bounded-staleness reads
	// consult — and its keys say which rows may be stale right now.
	pending map[uint64]pendingProp
	nextID  uint64
}

type pendingProp struct {
	view, baseKey string
	enq           time.Time
}

// NewViewObs returns empty instrumentation.
func NewViewObs() *ViewObs {
	return &ViewObs{
		perView: map[string]*metrics.AtomicHist{},
		pending: map[uint64]pendingProp{},
	}
}

// startPropagation registers an enqueued propagation of a base row's
// update into a view and returns its tracking ID.
func (o *ViewObs) startPropagation(view, baseKey string, now time.Time) uint64 {
	o.mu.Lock()
	o.nextID++
	id := o.nextID
	o.pending[id] = pendingProp{view: view, baseKey: baseKey, enq: now}
	o.mu.Unlock()
	return id
}

// finishPropagation retires a propagation. Successful ones record
// their lag (overall and per view); failed or abandoned ones only
// leave the pending set, since their lag is not a delivery time.
func (o *ViewObs) finishPropagation(id uint64, view string, now time.Time, err error) {
	o.mu.Lock()
	p, ok := o.pending[id]
	delete(o.pending, id)
	var vh *metrics.AtomicHist
	if ok && err == nil {
		vh = o.perView[view]
		if vh == nil {
			vh = &metrics.AtomicHist{}
			o.perView[view] = vh
		}
	}
	o.mu.Unlock()
	if vh != nil {
		lag := now.Sub(p.enq)
		o.Lag.ObserveDuration(lag)
		vh.ObserveDuration(lag)
	}
}

// Pending returns the number of in-flight propagations.
func (o *ViewObs) Pending() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.pending)
}

// PendingOn returns the number of in-flight propagations of updates to
// one base row, into any view: zero means no view row derived from it
// is stale on maintenance's account.
func (o *ViewObs) PendingOn(baseKey string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for _, p := range o.pending {
		if p.baseKey == baseKey {
			n++
		}
	}
	return n
}

// OldestPendingAge returns how long the oldest in-flight propagation
// has been outstanding — an upper bound on how stale any view row can
// currently be relative to its base table. Zero when nothing is
// pending.
func (o *ViewObs) OldestPendingAge(now time.Time) time.Duration {
	return o.oldestPending(now, "")
}

// OldestPendingAgeFor is OldestPendingAge restricted to one view — the
// per-view staleness bound a WithMaxStaleness read checks against its
// budget. Zero when nothing is pending for that view.
func (o *ViewObs) OldestPendingAgeFor(view string, now time.Time) time.Duration {
	return o.oldestPending(now, view)
}

func (o *ViewObs) oldestPending(now time.Time, view string) time.Duration {
	o.mu.Lock()
	defer o.mu.Unlock()
	var oldest time.Time
	for _, p := range o.pending {
		if view != "" && p.view != view {
			continue
		}
		if oldest.IsZero() || p.enq.Before(oldest) {
			oldest = p.enq
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return now.Sub(oldest)
}

// PerViewLag snapshots the per-view propagation-lag histograms.
func (o *ViewObs) PerViewLag() map[string]metrics.HistSnapshot {
	o.mu.Lock()
	hists := make(map[string]*metrics.AtomicHist, len(o.perView))
	for name, h := range o.perView {
		hists[name] = h
	}
	o.mu.Unlock()
	out := make(map[string]metrics.HistSnapshot, len(hists))
	for name, h := range hists {
		out[name] = h.Snapshot()
	}
	return out
}

// Obs returns the registry's staleness instrumentation.
func (r *Registry) Obs() *ViewObs { return r.obs }

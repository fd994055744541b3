package core

import (
	"sync"
	"time"

	"vstore/internal/metrics"
)

// ViewObs holds the propagation-lag instrumentation for view
// maintenance: the runtime equivalents of the paper's staleness metric
// (Section V measures it offline; a serving cluster needs it as a
// gauge). One ViewObs per Registry, shared by every node's Manager. The
// pending side of staleness — how many propagations are in flight, the
// oldest's age, which rows may be stale — is the registry's ledger
// (Registry.Pending and friends).
type ViewObs struct {
	// Lag records end-to-end propagation latency (Put enqueue to view
	// rows applied) in microseconds, across all views.
	Lag metrics.AtomicHist
	// ChainLen records the number of view rows visited per GetLiveKey
	// chain walk (1 = the guessed key was live).
	ChainLen metrics.AtomicHist

	mu      sync.Mutex
	perView map[string]*metrics.AtomicHist
}

// NewViewObs returns empty instrumentation.
func NewViewObs() *ViewObs {
	return &ViewObs{perView: map[string]*metrics.AtomicHist{}}
}

// delivered records the lag of a propagation into view that completed,
// overall and per view. Failed or abandoned propagations record
// nothing: their lag is not a delivery time.
func (o *ViewObs) delivered(view string, lag time.Duration) {
	o.mu.Lock()
	vh := o.perView[view]
	if vh == nil {
		vh = &metrics.AtomicHist{}
		o.perView[view] = vh
	}
	o.mu.Unlock()
	o.Lag.ObserveDuration(lag)
	vh.ObserveDuration(lag)
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

// Package core implements the paper's primary contribution:
// asynchronous, decentralized, incremental maintenance of materialized
// views in a multi-master eventually consistent record store.
//
// A view (Definition 1) projects a base table onto a secondary key:
// for every base row whose view-key column is non-NULL there is a view
// row keyed by that column's value, carrying the base key and any
// view-materialized columns. Views are stored as ordinary replicated
// tables, so a lookup by secondary key is a single-partition read.
//
// Because no server masters a base row, updates may reach the view
// concurrently and out of timestamp order. The package therefore
// stores *versioned views* (Definition 3): live rows carry a
// self-pointing Next cell, and every superseded view key survives as a
// stale row whose Next pointer chains to the live row. Update
// propagation (Algorithms 1-3) walks those chains to find the live
// row no matter which updates have already propagated; view reads
// (Algorithm 4) filter to live rows so applications never see the
// versioning.
//
// The "Get-then-Put" of Algorithm 1 is one request here, always: the
// base-table Put asks every replica for the view-key pre-images it
// overwrites (the combination Section IV-C proposes), and their replies
// are the propagation's guesses. There is no separate pre-read round
// and no option for one; Coordinator.GetVersions serves only the
// propagations that have no Put to ride on (Manager.recollect).
//
// Nothing in the package starts a goroutine or waits on a clock channel:
// background work and waits go through the coordinator (internal/wait),
// so the deterministic simulator hosts the same Manager production runs.
package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"vstore/internal/clock"
	"vstore/internal/model"
	"vstore/internal/propagate"
)

// Reserved column names inside versioned view rows. Every cell of a
// view row is qualified by the base key it belongs to (several base
// rows can share one view key), so the full cell name is
// model.Qualify(baseKey, <name>).
const (
	// ColBase is the paper's "B" column: the base key of the view row.
	// The qualifier of every cell already carries the base key and
	// nothing ever read this one, so propagation no longer writes it;
	// the name stays reserved for the rows on disk that have it.
	ColBase = "__base"
	// ColNext is the versioning pointer. A live row points to itself.
	ColNext = "__next"
	// ColReady marks a live row fully initialized (Section IV-F's
	// accessibility marker). A live row whose ready timestamp is older
	// than its Next timestamp is still being built and is invisible to
	// reads.
	ColReady = "__ready"
	// ColDeleted marks a live row whose view key was deleted in the
	// base table (a NULL Put to the view-key column). The row stays in
	// the versioned view as chain anchor but reads skip it while the
	// deletion is current.
	ColDeleted = "__del"
	// ColPrev is a promotion's redo intent: the view key of the row being
	// superseded, written atomically with the new row's self-pointer.
	// Live-row resolution detours through it when a walk ends at a row
	// that was created but never published (see resolveLive). Rows
	// written before this column existed lack it; resolution then
	// detours via the chain anchor.
	ColPrev = "__prev"
)

// nullKeyPrefix starts the reserved view-row key that anchors the
// stale chain of a base row whose view key was NULL. Creating a view
// row with no prior key writes this anchor so that a second concurrent
// creation (whose pre-read also saw NULL) can still find the live row.
const nullKeyPrefix = "\x00vstore-null\x00"

// nullRowKey returns the chain anchor key for a base row. Anchors are
// per base key so they spread over the cluster instead of forming one
// hot row.
func nullRowKey(baseKey string) string { return nullKeyPrefix + baseKey }

// IsInternalKey reports whether a view-row key is a versioning anchor
// rather than an application view key.
func IsInternalKey(viewKey string) bool { return strings.HasPrefix(viewKey, nullKeyPrefix) }

// Def defines a view (Definition 1 of the paper).
type Def struct {
	// Name is the view's table name.
	Name string
	// Base is the base table.
	Base string
	// ViewKeyColumn is the base column whose value keys the view.
	ViewKeyColumn string
	// Materialized lists the view-materialized base columns mirrored
	// into the view.
	Materialized []string
	// Selection optionally restricts the view to rows whose view-key
	// value satisfies a predicate — the relational-selection extension
	// Section III sketches ("a view would include only those rows that
	// satisfy a selection condition"). Rows outside the selection keep
	// their versioning structure (the stale chains must stay walkable)
	// but carry no materialized data and are invisible to reads.
	Selection *Selection

	// namespace, when non-empty, prefixes the base keys this
	// definition stores inside the view rows. Equi-join views
	// (Section III's PNUTS-style extension) register one Def per side
	// under the same Name, namespaced by base table, so primary keys
	// from the two tables can never collide inside the shared view.
	namespace string
}

// keySep separates a namespace from the base key inside stored keys
// (ASCII unit separator, forbidden in table names by DefineJoin).
const keySep = "\x1f"

// storedKey maps a base key to the identifier used inside view rows.
func (d *Def) storedKey(baseKey string) string {
	if d.namespace == "" {
		return baseKey
	}
	return d.namespace + keySep + baseKey
}

// SplitStoredKey decodes a stored base-key identifier back into its
// originating table (empty for single-base views) and base key.
func SplitStoredKey(stored string) (table, baseKey string) {
	if i := strings.Index(stored, keySep); i >= 0 {
		return stored[:i], stored[i+len(keySep):]
	}
	return "", stored
}

// Selection is a declarative predicate over view-key values.
// Predicates are data, not functions, so view definitions remain
// serializable across the wire protocol.
type Selection struct {
	// Prefix, when non-empty, requires the view key to start with it.
	Prefix string
	// Min and Max, when non-empty, bound the view key
	// lexicographically (inclusive).
	Min, Max string
}

// Matches reports whether a view-key value satisfies the predicate.
func (s *Selection) Matches(viewKey string) bool {
	if s == nil {
		return true
	}
	if s.Prefix != "" && !strings.HasPrefix(viewKey, s.Prefix) {
		return false
	}
	if s.Min != "" && viewKey < s.Min {
		return false
	}
	if s.Max != "" && viewKey > s.Max {
		return false
	}
	return true
}

// validate checks predicate sanity.
func (s *Selection) validate() error {
	if s == nil {
		return nil
	}
	if s.Min != "" && s.Max != "" && s.Min > s.Max {
		return fmt.Errorf("core: selection Min %q > Max %q", s.Min, s.Max)
	}
	if s.Prefix == "" && s.Min == "" && s.Max == "" {
		return fmt.Errorf("core: empty selection (omit it instead)")
	}
	return nil
}

// Selects reports whether a view key is inside the view's selection.
func (d *Def) Selects(viewKey string) bool { return d.Selection.Matches(viewKey) }

// Validate checks structural sanity of the definition.
func (d *Def) Validate() error {
	switch {
	case d.Name == "":
		return fmt.Errorf("core: view needs a name")
	case d.Base == "":
		return fmt.Errorf("core: view %q needs a base table", d.Name)
	case d.Name == d.Base:
		return fmt.Errorf("core: view %q cannot be its own base", d.Name)
	case d.ViewKeyColumn == "":
		return fmt.Errorf("core: view %q needs a view-key column", d.Name)
	}
	seen := map[string]bool{d.ViewKeyColumn: true}
	for _, c := range d.Materialized {
		switch {
		case c == "":
			return fmt.Errorf("core: view %q has an empty materialized column", d.Name)
		case isReserved(c):
			return fmt.Errorf("core: view %q materializes reserved column %q", d.Name, c)
		case seen[c]:
			return fmt.Errorf("core: view %q lists column %q twice", d.Name, c)
		}
		seen[c] = true
	}
	if isReserved(d.ViewKeyColumn) {
		return fmt.Errorf("core: view %q uses reserved view-key column %q", d.Name, d.ViewKeyColumn)
	}
	if err := d.Selection.validate(); err != nil {
		return fmt.Errorf("view %q: %w", d.Name, err)
	}
	return nil
}

func isReserved(col string) bool {
	switch col {
	case ColBase, ColNext, ColReady, ColDeleted, ColPrev:
		return true
	}
	return false
}

// isMaterialized reports whether col is a view-materialized column.
func (d *Def) isMaterialized(col string) bool {
	for _, c := range d.Materialized {
		if c == col {
			return true
		}
	}
	return false
}

// Mode selects the concurrency-control scheme for update propagation
// (Section IV-F).
type Mode int

const (
	// ModeLocks has each update coordinator propagate its own updates,
	// each round granted its base row shared or exclusive by the ledger.
	ModeLocks Mode = iota
	// ModePropagators hands propagation to a pool of dedicated
	// propagators; consistent hashing of the base key picks the one
	// responsible for a row.
	ModePropagators
)

// Options tune view maintenance.
type Options struct {
	// Mode selects the propagation concurrency control.
	Mode Mode
	// Propagators sizes the dedicated pool for ModePropagators.
	// Default 8.
	Propagators int
	// SyncPropagation makes base-table Puts block until propagation
	// completes. Used by tests and by the synchronous-maintenance
	// ablation; the paper's system is asynchronous (off).
	SyncPropagation bool
	// PropagationDelay, when non-nil, is sampled before each
	// asynchronous propagation starts, modeling background scheduling
	// lag of the prototype's propagation queue (Figure 7's session
	// experiment is sensitive to it).
	PropagationDelay func() time.Duration
	// MaxPropagationRetry bounds how long a coordinator keeps
	// retrying a failed propagation before giving up. Default 10s.
	MaxPropagationRetry time.Duration
	// RetryBackoff is the initial retry backoff. Default 1ms,
	// doubling to a 50ms cap.
	RetryBackoff time.Duration
	// PathCompression makes GetLiveKey rewrite the Next pointers it
	// traverses to point directly at the live row (an extension beyond
	// the paper; see the Figure 8 ablation).
	PathCompression bool
	// ReadSpin bounds how long a view read waits for an initializing
	// live row before treating it as absent. Default 500ms.
	ReadSpin time.Duration
	// MaxChainHops caps stale-chain traversal as a cycle guard.
	// Default 4096.
	MaxChainHops int
	// MaxPendingPropagations bounds the asynchronous propagation
	// backlog per manager; further base-table Puts block until slots
	// free up. This models the prototype's bounded maintenance
	// capacity on each coordinator and keeps memory bounded under
	// write storms. Default 256; negative disables the bound.
	MaxPendingPropagations int
	// Clock supplies retry backoffs, read spins and propagation-delay
	// timers; nil uses the wall clock.
	Clock clock.Clock
}

func (o Options) withDefaults() Options {
	if o.Propagators <= 0 {
		o.Propagators = 8
	}
	if o.MaxPropagationRetry == 0 {
		o.MaxPropagationRetry = 10 * time.Second
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = time.Millisecond
	}
	if o.ReadSpin == 0 {
		o.ReadSpin = 500 * time.Millisecond
	}
	if o.MaxChainHops <= 0 {
		o.MaxChainHops = 4096
	}
	if o.MaxPendingPropagations == 0 {
		o.MaxPendingPropagations = 256
	}
	return o
}

// JoinDef defines an equi-join view: rows of two base tables that
// share a join-column value co-materialize under that value in one
// view table — the PNUTS-style extension Section III sketches.
// Reading the view by join key returns the matching rows of both
// sides (each ViewRow names its Table); the client pairs them, which
// is exactly how PNUTS Remote View Tables serve joins.
type JoinDef struct {
	// Name is the join view's table name.
	Name string
	// Left and Right are the joined sides.
	Left, Right JoinSide
}

// JoinSide describes one base table's participation in a join view.
type JoinSide struct {
	// Base is the base table.
	Base string
	// On is the base column whose value is the join key.
	On string
	// Materialized lists this side's mirrored columns.
	Materialized []string
	// Selection optionally restricts this side.
	Selection *Selection
}

// Registry holds the cluster-wide view catalog plus the shared
// concurrency-control state (the ledger, which also grants rows to
// rounds as Section IV-F's lock, or the dedicated propagator pool). Every node's view Manager shares one
// Registry.
type Registry struct {
	opts Options
	clk  clock.Clock

	mu     sync.RWMutex
	byName map[string][]*Def // one Def for plain views, two for joins
	byBase map[string][]*Def
	// filling names the views whose backfill has not finished.
	filling  map[string]bool
	managers []*Manager

	pool *propagate.Pool
	obs  *ViewObs
	// ledger records every propagation in flight, on every manager.
	ledger ledger
}

// NewRegistry returns an empty catalog.
func NewRegistry(opts Options) *Registry {
	opts = opts.withDefaults()
	r := &Registry{
		opts:    opts,
		clk:     clock.Or(opts.Clock),
		byName:  map[string][]*Def{},
		byBase:  map[string][]*Def{},
		filling: map[string]bool{},
		obs:     NewViewObs(),
		ledger:  ledger{rows: map[string]*rowChain{}},
	}
	if opts.Mode == ModePropagators {
		r.pool = propagate.NewPool(opts.Propagators)
	}
	return r
}

// Close ends view maintenance: every manager of the registry is closed
// (Manager.Close), then the propagator pool is stopped.
func (r *Registry) Close() {
	r.mu.RLock()
	managers := append([]*Manager(nil), r.managers...)
	r.mu.RUnlock()
	for _, m := range managers {
		m.Close()
	}
	if r.pool != nil {
		r.pool.Close()
	}
}

func (r *Registry) attach(m *Manager) {
	r.mu.Lock()
	r.managers = append(r.managers, m)
	r.mu.Unlock()
}

// Options returns the registry's (defaulted) options.
func (r *Registry) Options() Options { return r.opts }

// Define registers a single-base view.
func (r *Registry) Define(def Def) error {
	if err := def.Validate(); err != nil {
		return err
	}
	d := cloneDef(def)
	return r.install([]*Def{d})
}

// DefineJoin registers an equi-join view: two Defs sharing one view
// table, each namespaced by its base table.
func (r *Registry) DefineJoin(jd JoinDef) error {
	if jd.Left.Base == jd.Right.Base {
		return fmt.Errorf("core: join view %q joins table %q with itself", jd.Name, jd.Left.Base)
	}
	defs := make([]*Def, 0, 2)
	for _, side := range []JoinSide{jd.Left, jd.Right} {
		if strings.Contains(side.Base, keySep) {
			return fmt.Errorf("core: base table name %q contains a reserved byte", side.Base)
		}
		d := cloneDef(Def{
			Name:          jd.Name,
			Base:          side.Base,
			ViewKeyColumn: side.On,
			Materialized:  side.Materialized,
			Selection:     side.Selection,
		})
		d.namespace = side.Base
		if err := d.Validate(); err != nil {
			return err
		}
		defs = append(defs, d)
	}
	return r.install(defs)
}

func cloneDef(def Def) *Def {
	d := def
	d.Materialized = append([]string(nil), def.Materialized...)
	if def.Selection != nil {
		sel := *def.Selection
		d.Selection = &sel
	}
	return &d
}

// install atomically registers the defs (all sharing one Name).
func (r *Registry) install(defs []*Def) error {
	name := defs[0].Name
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; ok {
		return fmt.Errorf("core: view %q already defined", name)
	}
	if _, ok := r.byBase[name]; ok {
		return fmt.Errorf("core: %q is a base table of another view", name)
	}
	for _, d := range defs {
		if _, ok := r.byName[d.Base]; ok {
			return fmt.Errorf("core: base %q of view %q is itself a view", d.Base, name)
		}
	}
	r.byName[name] = defs
	for _, d := range defs {
		r.byBase[d.Base] = append(r.byBase[d.Base], d)
	}
	return nil
}

// Drop removes a view definition (all sides, for joins). The view
// table's data is left in place (dropping storage is the owner's
// concern).
func (r *Registry) Drop(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	defs, ok := r.byName[name]
	if !ok {
		return fmt.Errorf("core: unknown view %q", name)
	}
	delete(r.byName, name)
	delete(r.filling, name)
	for _, def := range defs {
		views := r.byBase[def.Base]
		for i, v := range views {
			if v == def {
				// A new slice, not an edit in place: ViewsOn's callers
				// may still hold the old one.
				r.byBase[def.Base] = append(views[:i:i], views[i+1:]...)
				break
			}
		}
		if len(r.byBase[def.Base]) == 0 {
			delete(r.byBase, def.Base)
		}
	}
	return nil
}

// defines reports whether def is still what the catalog holds under its
// name — not dropped, nor dropped and re-created.
func (r *Registry) defines(def *Def) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, d := range r.byName[def.Name] {
		if d == def {
			return true
		}
	}
	return false
}

// SetBackfilling records whether a view's backfill is still running.
// While it is, the view lacks rows for base rows its scan has not
// reached, so propagations into it are anchored (see Task).
func (r *Registry) SetBackfilling(name string, on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; ok && on {
		r.filling[name] = true
	} else {
		delete(r.filling, name)
	}
}

func (r *Registry) backfilling(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.filling[name]
}

// View returns the definition of a single-base view (the first side
// of a join view; use Defs for all sides).
func (r *Registry) View(name string) (*Def, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	defs, ok := r.byName[name]
	if !ok {
		return nil, false
	}
	return defs[0], true
}

// Defs returns every definition registered under a view name: one for
// plain views, two for join views. The slice is the registry's own,
// clipped to its length: it must not be modified, and it stays as
// returned — Drop forgets it rather than editing it.
func (r *Registry) Defs(name string) []*Def {
	r.mu.RLock()
	defer r.mu.RUnlock()
	defs := r.byName[name]
	return defs[:len(defs):len(defs)]
}

// ViewsOn returns the views defined on a base table. The slice is the
// registry's own, clipped to its length: it must not be modified, and
// it stays as returned — Define appends past its end, Drop replaces it.
func (r *Registry) ViewsOn(base string) []*Def {
	r.mu.RLock()
	defer r.mu.RUnlock()
	views := r.byBase[base]
	return views[:len(views):len(views)]
}

// ViewNames lists all defined views, sorted.
func (r *Registry) ViewNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.byName))
	for n := range r.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// IsView reports whether name names a view (views reject direct Puts).
func (r *Registry) IsView(name string) bool {
	_, ok := r.View(name)
	return ok
}

// ViewRow is one application-visible row of a view: the result of
// Algorithm 4 for one matching live row.
type ViewRow struct {
	// ViewKey is the secondary key the row is stored under.
	ViewKey string
	// Table names the base table the row mirrors. Empty for
	// single-base views (the view's one base); set to the originating
	// side for equi-join views.
	Table string
	// BaseKey identifies the base row this view row mirrors
	// (Definition 1's B cell).
	BaseKey string
	// Cells holds the requested view-materialized columns.
	Cells model.Row
}

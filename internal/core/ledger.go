package core

import (
	"context"
	"sync"
	"time"

	"vstore/internal/trace"
	"vstore/internal/wait"
)

// ledger is the registry's one record of the propagations in flight,
// on every manager: an entry is the propagation's *retry, admitted when
// it is scheduled and taken out last when it ends. Every question about
// pending work — the backlog gauges, which rows may be stale right now,
// a row's chain of propagations for the hand-off, what Close, Quiesce, a
// session read and a bounded-staleness read wait for — is answered from
// it, every wait on pending work parks on it, and it grants rows to
// rounds (serialize).
type ledger struct {
	mu sync.Mutex
	// first and last end the entries in admission order, which is also
	// enqueue-time order: both are taken under mu.
	first, last *retry
	// rows maps a Task.lockKey to its row's chain.
	rows    map[string]*rowChain
	seq     uint64 // admission sequence number of the last entry
	waiters []*waiter
}

// rowChain is one row's record, alive as long as its chain: the newest
// entry, the head of the chain (retry.prev, handOff), and the turns that
// only its entries' attempts take, and give back before they leave.
type rowChain struct {
	last  *retry
	turns wait.Turns
}

// waiter is one wait on the ledger: a condition re-checked whenever an
// entry it covers leaves, and the gate the waiter parks on. Whatever
// else may end the wait — a context, a deadline — opens the gate too.
type waiter struct {
	covers func(*retry) bool
	// ready is the condition; nil means "no entry covers matches".
	ready func() bool
	gate  wait.Gate
	met   bool // set, under ledger.mu, by the leave that met the condition
}

// admit enters r, enqueued now, under sess; false once r's manager is
// closed.
func (l *ledger) admit(r *retry, sess *Session, now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if r.m.closed {
		return false
	}
	l.seq++
	r.seq, r.sess, r.enq = l.seq, sess, now
	if r.older = l.last; r.older != nil {
		r.older.newer = r
	} else {
		l.first = r
	}
	l.last = r
	c := l.rows[r.t.lockKey]
	if c == nil {
		c = &rowChain{}
		l.rows[r.t.lockKey] = c
	}
	if r.prev = c.last; r.prev != nil {
		r.prev.next = r
	}
	c.last = r
	return true
}

// serialize gives a round of an entry of key's chain a turn of the row
// (wait.Turns.Take). Only propagation rounds take turns: base-table
// writes and reads and view reads never do (Section IV-F).
func (l *ledger) serialize(key string, exclusive bool, park wait.Parker) (release func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rows[key].turns.Take(&l.mu, exclusive, park)
}

// leave takes r out of the ledger and its row's chain, then wakes the
// propagations parked on it and the waiters whose condition its leaving
// met.
func (l *ledger) leave(r *retry) {
	var met []*waiter
	l.mu.Lock()
	successors := r.successors
	r.successors = nil
	if r.seq != 0 {
		if r.older != nil {
			r.older.newer = r.newer
		} else {
			l.first = r.newer
		}
		if r.newer != nil {
			r.newer.older = r.older
		} else {
			l.last = r.older
		}
		switch {
		case r.next != nil:
			r.next.prev = r.prev
		case r.prev != nil:
			l.rows[r.t.lockKey].last = r.prev
		default:
			delete(l.rows, r.t.lockKey)
		}
		if r.prev != nil {
			r.prev.next = r.next
		}
		r.older, r.newer, r.prev, r.next = nil, nil, nil, nil
		kept := l.waiters[:0]
		for _, w := range l.waiters {
			if w.covers(r) && l.holds(w) {
				w.met = true
				met = append(met, w)
			} else {
				kept = append(kept, w)
			}
		}
		clear(l.waiters[len(kept):])
		l.waiters = kept
		r.seq = 0
	}
	l.mu.Unlock()
	for _, s := range successors {
		s.wake()
	}
	for _, w := range met {
		w.gate.Open()
	}
}

// holds reports whether w's condition holds. Called under l.mu.
func (l *ledger) holds(w *waiter) bool {
	if w.ready != nil {
		return w.ready()
	}
	return l.find(w.covers) == nil
}

// find returns the oldest entry match accepts, or nil. Called under l.mu.
func (l *ledger) find(match func(*retry) bool) *retry {
	for r := l.first; r != nil; r = r.newer {
		if match(r) {
			return r
		}
	}
	return nil
}

// count returns the number of entries match accepts.
func (l *ledger) count(match func(*retry) bool) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for r := l.first; r != nil; r = r.newer {
		if match(r) {
			n++
		}
	}
	return n
}

// oldestAge returns how long the oldest entry match accepts has been
// pending at now; zero when there is none.
func (l *ledger) oldestAge(now time.Time, match func(*retry) bool) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if r := l.find(match); r != nil {
		return now.Sub(r.enq)
	}
	return 0
}

// await parks on park until w's condition holds, or until ctx ends or
// something else opens w's gate, and reports whether the condition was
// met.
func (l *ledger) await(ctx context.Context, park wait.Parker, w *waiter) bool {
	l.mu.Lock()
	if l.holds(w) {
		l.mu.Unlock()
		return true
	}
	l.waiters = append(l.waiters, w)
	l.mu.Unlock()
	stop := context.AfterFunc(ctx, w.gate.Open)
	w.gate.Wait(park)
	stop()
	l.mu.Lock()
	defer l.mu.Unlock()
	if !w.met {
		for i, x := range l.waiters {
			if x == w {
				l.waiters = append(l.waiters[:i], l.waiters[i+1:]...)
				break
			}
		}
	}
	return w.met
}

// owns reports whether r is one of m's propagations.
func (m *Manager) owns(r *retry) bool { return r.m == m }

// PendingPropagations reports the number of propagations this manager
// scheduled that have not ended.
func (m *Manager) PendingPropagations() int { return m.reg.ledger.count(m.owns) }

// SlotsHeld reports the back-pressure slots (Options.MaxPendingPropagations)
// this manager's propagations hold; zero when the backlog is unbounded.
func (m *Manager) SlotsHeld() int { return m.slots.Held() }

// Quiesce blocks until no propagation scheduled through this manager
// is in flight, or the context expires.
func (m *Manager) Quiesce(ctx context.Context) error {
	if !m.reg.ledger.await(ctx, m.co.Park, &waiter{covers: m.owns}) {
		return ctx.Err()
	}
	return nil
}

// Close cancels every in-flight propagation and returns once they have
// ended: nothing of this manager touches the intent log afterwards, so
// the node's logs can be closed. The cancelled propagations' intents
// are not marked done — the next recovery replays them. Writes and
// replays reaching a closed manager fail with ErrClosed.
func (m *Manager) Close() {
	l := &m.reg.ledger
	l.mu.Lock()
	m.closed = true
	var live []*retry
	for r := l.first; r != nil; r = r.newer {
		if r.m == m {
			live = append(live, r)
		}
	}
	l.mu.Unlock()
	for _, r := range live {
		r.interrupt(ErrClosed)
	}
	l.await(context.Background(), m.co.Park, &waiter{covers: m.owns})
}

func (m *Manager) isClosed() bool {
	m.reg.ledger.mu.Lock()
	defer m.reg.ledger.mu.Unlock()
	return m.closed
}

// AwaitStaleness parks until the view's oldest pending propagation is
// at most bound old (OldestPendingAgeFor), for at most bound, and
// reports whether the bound was met; false also when ctx ended first.
func (m *Manager) AwaitStaleness(ctx context.Context, view string, bound time.Duration) bool {
	l, clk := &m.reg.ledger, m.reg.clk
	into := func(r *retry) bool { return r.t.def.Name == view }
	w := &waiter{covers: into}
	w.ready = func() bool {
		r := l.find(into)
		return r == nil || clk.Now().Sub(r.enq) <= bound
	}
	disarm := clk.AfterFunc(bound, w.gate.Open)
	defer disarm()
	return l.await(ctx, m.co.Park, w)
}

// Pending returns the number of propagations in flight on every
// manager.
func (r *Registry) Pending() int { return r.ledger.count(func(*retry) bool { return true }) }

// PendingOn returns the number of in-flight propagations of updates to
// one base row, into any view: zero means no view row derived from it
// is stale on maintenance's account.
func (r *Registry) PendingOn(baseKey string) int {
	return r.ledger.count(func(p *retry) bool { return p.t.baseKey == baseKey })
}

// OldestPendingAge returns how long the oldest in-flight propagation
// has been outstanding — an upper bound on how stale any view row can
// currently be relative to its base table. Zero when nothing is
// pending.
func (r *Registry) OldestPendingAge(now time.Time) time.Duration {
	return r.ledger.oldestAge(now, func(*retry) bool { return true })
}

// OldestPendingAgeFor is OldestPendingAge restricted to one view — the
// per-view staleness bound a WithMaxStaleness read checks against its
// budget. Zero when nothing is pending for that view.
func (r *Registry) OldestPendingAgeFor(view string, now time.Time) time.Duration {
	return r.ledger.oldestAge(now, func(p *retry) bool { return p.t.def.Name == view })
}

// Session is one client's sequence of operations with the session
// guarantee of Section V (Definition 4): a view read in the session
// observes a view state at least as late as the one its own earlier
// base-table updates produce. The mechanism is the paper's: every
// request of a session goes through one coordinator's manager, each
// propagation its writes schedule is a ledger entry under the session,
// and the session's view reads wait for those entries to leave. View
// maintenance stays fully asynchronous; only the session's own reads
// block, and only on its own writes.
type Session struct {
	m     *Manager
	ended bool // guarded by the ledger's mutex
}

// Session begins a session on this manager.
func (m *Manager) Session() *Session { return &Session{m: m} }

// End ends the session: its later view reads wait for nothing.
func (s *Session) End() {
	l := &s.m.reg.ledger
	l.mu.Lock()
	s.ended = true
	l.mu.Unlock()
}

// WaitView blocks until every propagation into view that a write of
// this session scheduled before the call has ended, successfully or not
// — exactly Definition 4's precondition for a session view read — or
// until ctx ends. Reads of views the session did not write return at
// once.
func (s *Session) WaitView(ctx context.Context, view string) error {
	l := &s.m.reg.ledger
	l.mu.Lock()
	before := l.seq
	covers := func(r *retry) bool { return r.sess == s && r.seq <= before && r.t.def.Name == view }
	idle := s.ended || l.find(covers) == nil
	l.mu.Unlock()
	if idle {
		return nil
	}
	sp := trace.FromContext(ctx).Child("session.wait")
	sp.SetAttr("view", view)
	defer sp.Finish()
	if !l.await(ctx, s.m.co.Park, &waiter{covers: covers}) {
		return ctx.Err()
	}
	return nil
}

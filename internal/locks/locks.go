// Package locks provides the keyed shared/exclusive lock service
// described in Section IV-F of the paper as one way to serialize
// update propagation: "propagations of view key updates must obtain an
// exclusive lock, while propagations of view-materialized cell updates
// can proceed with a shared lock", keyed by the base row whose update
// is being propagated.
//
// The locks only coordinate propagation. They are never taken by base
// table Puts/Gets or by view Gets, matching the paper's note that they
// "do not affect Get or Put operations on the base table, nor ... Get
// operations on views".
package locks

import (
	"sync"

	"vstore/internal/wait"
)

// Manager is one table of shared/exclusive locks keyed by string. A
// caller that cannot be admitted queues a wake function and parks.
// Waiters are woken in arrival order — a reader together with the
// readers queued directly behind it — when the lock becomes free for the
// first of them; a newcomer that finds the lock free takes it, as with
// sync.Mutex, except that a reader never passes a queue (so readers
// cannot starve a waiting writer), and a woken waiter that lost to a
// newcomer goes back to the head of the queue. On one thread of control
// a woken waiter runs at once, and the order is strictly first come,
// first served. Idle keys consume no memory.
type Manager struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// entry is one key that is held or awaited.
type entry struct {
	refs    int // holders and waiters, parked or just woken
	readers int
	writer  bool
	queue   []waiter
}

type waiter struct {
	exclusive bool
	wake      func()
}

// NewManager returns an empty lock table.
func NewManager() *Manager {
	return &Manager{entries: map[string]*entry{}}
}

// admits reports whether a new holder may join the current ones.
func (e *entry) admits(exclusive bool) bool {
	if exclusive {
		return !e.writer && e.readers == 0
	}
	return !e.writer
}

// Acquire takes the lock for key — exclusive, or shared with other
// shared holders — parking through park while it cannot be admitted, and
// returns its release function (idempotent).
func (m *Manager) Acquire(key string, exclusive bool, park wait.Parker) (release func()) {
	m.mu.Lock()
	e := m.entries[key]
	if e == nil {
		e = &entry{}
		m.entries[key] = e
	}
	e.refs++
	if !e.admits(exclusive) || !exclusive && len(e.queue) > 0 {
		m.await(e, exclusive, park)
	}
	if exclusive {
		e.writer = true
	} else {
		e.readers++
	}
	m.mu.Unlock()

	released := false
	return func() {
		m.mu.Lock()
		if released {
			m.mu.Unlock()
			return
		}
		released = true
		if exclusive {
			e.writer = false
		} else {
			e.readers--
		}
		if e.refs--; e.refs == 0 {
			delete(m.entries, key)
		}
		// Wake the head of the queue if the lock is now free for it, and
		// with a reader the readers directly behind it.
		n := 0
		if len(e.queue) > 0 && e.admits(e.queue[0].exclusive) {
			for n = 1; !e.queue[0].exclusive && n < len(e.queue) && !e.queue[n].exclusive; n++ {
			}
		}
		woken := e.queue[:n]
		e.queue = e.queue[n:]
		m.mu.Unlock()
		for _, w := range woken {
			w.wake()
		}
	}
}

// await parks the caller, who holds m.mu and holds it again on return,
// until e admits it.
func (m *Manager) await(e *entry, exclusive bool, park wait.Parker) {
	for woken := false; !woken || !e.admits(exclusive); woken = true {
		park(func(wake func()) {
			if w := (waiter{exclusive, wake}); woken {
				e.queue = append([]waiter{w}, e.queue...) // lost to a newcomer: keeps its turn
			} else {
				e.queue = append(e.queue, w)
			}
			m.mu.Unlock()
		})
		m.mu.Lock()
	}
}

// Lock takes the exclusive lock for key, blocking the calling goroutine,
// and returns its release function.
func (m *Manager) Lock(key string) (release func()) { return m.Acquire(key, true, wait.OnChannel) }

// RLock takes the shared lock for key, blocking the calling goroutine,
// and returns its release function.
func (m *Manager) RLock(key string) (release func()) { return m.Acquire(key, false, wait.OnChannel) }

// Active reports the number of keys currently locked or awaited (for
// tests: verifies idle keys are reclaimed).
func (m *Manager) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

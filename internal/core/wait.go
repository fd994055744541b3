package core

import "sync"

// This file is how the package waits. Nothing here (or anywhere in the
// package) starts a goroutine or blocks on a clock channel: a wait is
// "arm a wake, park" through the coordinator (coord.Coordinator.Park — a
// channel wait between goroutines, a parked process on the simulator's
// event fabric), so one thread of control can host a Manager.

// parker is coord.Coordinator.Park.
type parker func(arm func(wake func()))

// gate is one wait. Any number of sources may open it, from anywhere;
// the first open wakes the waiter — or, coming before wait, lets it pass
// without parking — and the rest are no-ops. That makes a gate both the
// "woken exactly once" guard of a wait with several sources (a back-off
// timer, a collector changing, a cancellation) and safe against the wake
// that beats its waiter. A loop that waits repeatedly may reuse one gate,
// shut again before each wait: a late open from an earlier wait's source
// then ends the current one early, which such a loop must tolerate.
type gate struct {
	mu     sync.Mutex
	opened bool
	wake   func()
	arm    func(wake func()) // parks the waiter; built once
}

func (g *gate) open() {
	g.mu.Lock()
	wake := g.wake
	g.opened, g.wake = true, nil
	g.mu.Unlock()
	if wake != nil {
		wake()
	}
}

func (g *gate) shut() {
	g.mu.Lock()
	g.opened = false
	g.mu.Unlock()
}

// wait parks the caller until the gate is open. One waiter per gate.
func (g *gate) wait(park parker) {
	g.mu.Lock()
	if g.opened {
		g.mu.Unlock()
		return
	}
	if g.arm == nil {
		g.arm = func(wake func()) {
			g.wake = wake
			g.mu.Unlock()
		}
	}
	park(g.arm)
}

// slots is the bounded propagation backlog
// (Options.MaxPendingPropagations): a counting semaphore whose waiters
// are served in arrival order. A nil *slots is unbounded.
type slots struct {
	mu    sync.Mutex
	free  int
	queue []*gate
}

// acquire takes a slot, parking while none is free, and reports whether
// it had to wait.
func (s *slots) acquire(park parker) (waited bool) {
	if s == nil {
		return false
	}
	s.mu.Lock()
	if s.free > 0 {
		s.free--
		s.mu.Unlock()
		return false
	}
	g := &gate{}
	s.queue = append(s.queue, g)
	s.mu.Unlock()
	g.wait(park)
	return true
}

// release frees a slot: handed to the longest waiter, if any.
func (s *slots) release() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if len(s.queue) == 0 {
		s.free++
		s.mu.Unlock()
		return
	}
	g := s.queue[0]
	s.queue = s.queue[1:]
	s.mu.Unlock()
	g.open()
}

// countdown is finished by the last of the propagations one write, one
// intent replay or one backfill fill scheduled. It carries the intent
// done-rule: then learns whether every one of them completed.
type countdown struct {
	mu    sync.Mutex
	left  int
	stale bool // a propagation ended without completing: its view still owes the write
	// then, when non-nil, runs once, on whatever finishes last.
	then func(complete bool)
	// done opens after then; the scheduler may wait on it
	// (SyncPropagation, a backfill fill).
	done gate
}

// finish counts one propagation out. complete means its view holds the
// write, or no longer exists.
func (c *countdown) finish(complete bool) {
	c.mu.Lock()
	c.left--
	c.stale = c.stale || !complete
	last, stale := c.left == 0, c.stale
	c.mu.Unlock()
	if !last {
		return
	}
	if c.then != nil {
		c.then(!stale)
	}
	c.done.open()
}

// finished reports whether the last propagation has been counted out.
func (c *countdown) finished() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.left == 0
}

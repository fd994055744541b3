// Package wait is how the layers the simulator hosts on its one thread
// of control wait (core, locks, backfill). Nothing here starts a
// goroutine or blocks on a clock channel: a wait is "arm a wake, park"
// through a Parker (coord.Coordinator.Park — a channel wait between
// goroutines, a parked process on the simulator's event fabric).
package wait

import "sync"

// Parker suspends its caller until the wake function it hands to arm is
// called. arm runs at once, on the caller; wake is called exactly once,
// never from inside arm.
type Parker func(arm func(wake func()))

// OnChannel is the Parker of plain goroutines.
func OnChannel(arm func(wake func())) {
	woken := make(chan struct{})
	arm(func() { close(woken) })
	<-woken
}

// Gate is one wait. Any number of sources may open it, from anywhere;
// the first open wakes the waiter — or, coming before Wait, lets it pass
// without parking — and the rest are no-ops. That makes a gate both the
// "woken exactly once" guard of a wait with several sources (a back-off
// timer, a collector changing, a cancellation) and safe against the wake
// that beats its waiter. A loop that waits repeatedly may reuse one gate,
// shut again before each wait: a late open from an earlier wait's source
// then ends the current one early, which such a loop must tolerate. The
// zero Gate is shut.
type Gate struct {
	mu     sync.Mutex
	opened bool
	wake   func()
	arm    func(wake func()) // parks the waiter; built once
}

// Open opens the gate, waking its waiter if one is parked.
func (g *Gate) Open() {
	g.mu.Lock()
	wake := g.wake
	g.opened, g.wake = true, nil
	g.mu.Unlock()
	if wake != nil {
		wake()
	}
}

// Shut closes the gate again for the next Wait.
func (g *Gate) Shut() {
	g.mu.Lock()
	g.opened = false
	g.mu.Unlock()
}

// Wait parks the caller until the gate is open. One waiter per gate.
func (g *Gate) Wait(park Parker) {
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

// Slots is a counting semaphore whose waiters are served in arrival
// order. A nil *Slots is unbounded.
type Slots struct {
	mu    sync.Mutex
	free  int
	held  int // taken by an Acquire that has returned, not yet released
	queue []*Gate
}

// NewSlots returns a semaphore of n slots.
func NewSlots(n int) *Slots { return &Slots{free: n} }

// Acquire takes a slot, parking while none is free, and reports whether
// it had to wait.
func (s *Slots) Acquire(park Parker) (waited bool) {
	if s == nil {
		return false
	}
	s.mu.Lock()
	if s.free > 0 {
		s.free--
		s.held++
		s.mu.Unlock()
		return false
	}
	g := &Gate{}
	s.queue = append(s.queue, g)
	s.mu.Unlock()
	g.Wait(park)
	s.mu.Lock()
	s.held++
	s.mu.Unlock()
	return true
}

// Release frees a slot: handed to the longest waiter, if any.
func (s *Slots) Release() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.held--
	if len(s.queue) == 0 {
		s.free++
		s.mu.Unlock()
		return
	}
	g := s.queue[0]
	s.queue = s.queue[1:]
	s.mu.Unlock()
	g.Open()
}

// Held reports the slots taken by Acquire calls that have returned and
// not been released yet; zero for a nil *Slots.
func (s *Slots) Held() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.held
}

// Countdown is finished by the last of a known number of pieces of
// work: the propagations one write or one intent replay scheduled, the
// fills of one backfill page, the partitions of one scan. It carries
// the intent done-rule: its then learns whether every piece completed.
type Countdown struct {
	mu    sync.Mutex
	left  int
	stale bool // a piece ended without completing
	then  func(complete bool)
	// Done opens after then; one waiter may wait on it.
	Done Gate
}

// NewCountdown returns a countdown of n pieces; then, when non-nil,
// runs once, on whatever finishes last.
func NewCountdown(n int, then func(complete bool)) *Countdown {
	return &Countdown{left: n, then: then}
}

// Finish counts one piece out. complete means it did its work.
func (c *Countdown) Finish(complete bool) {
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
	c.Done.Open()
}

// Finished reports whether the last piece has been counted out.
func (c *Countdown) Finished() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.left == 0
}

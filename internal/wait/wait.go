// Package wait is how the layers the simulator hosts on its one thread
// of control wait (core, backfill). Nothing here starts a
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

// Turns grants a row to exclusive holders one at a time and to shared
// ones together (Section IV-F's lock), guarded by its owner's mutex. The
// queue is woken in arrival order, readers in batches; a newcomer that
// finds the row free takes it, as with sync.Mutex, but a reader never
// passes a queue (so readers cannot starve a writer), and a woken waiter
// that lost to a newcomer keeps its turn. On one thread of control a
// woken waiter runs at once: strictly first come, first served.
type Turns struct {
	readers int
	writer  bool
	queue   []turn
}

type turn struct {
	exclusive bool
	wake      func()
}

// admits reports whether a new holder may join the current ones.
func (t *Turns) admits(exclusive bool) bool {
	if exclusive {
		return !t.writer && t.readers == 0
	}
	return !t.writer
}

// Take takes a turn, parking through park while it cannot; it is called
// and returns with mu locked. The release (idempotent) locks mu to give
// the turn back, then wakes the head of the queue if the row is free for
// it, with a reader the readers directly behind it.
func (t *Turns) Take(mu sync.Locker, exclusive bool, park Parker) (release func()) {
	for woken := false; !t.admits(exclusive) || !woken && !exclusive && len(t.queue) > 0; woken = true {
		park(func(wake func()) {
			if w := (turn{exclusive, wake}); woken {
				t.queue = append([]turn{w}, t.queue...) // lost to a newcomer: keeps its turn
			} else {
				t.queue = append(t.queue, w)
			}
			mu.Unlock()
		})
		mu.Lock()
	}
	if exclusive {
		t.writer = true
	} else {
		t.readers++
	}
	released := false
	return func() {
		mu.Lock()
		if released {
			mu.Unlock()
			return
		}
		released = true
		if exclusive {
			t.writer = false
		} else {
			t.readers--
		}
		n := 0
		if len(t.queue) > 0 && t.admits(t.queue[0].exclusive) {
			for n = 1; !t.queue[0].exclusive && n < len(t.queue) && !t.queue[n].exclusive; n++ {
			}
		}
		woken := t.queue[:n]
		t.queue = t.queue[n:]
		mu.Unlock()
		for _, w := range woken {
			w.wake()
		}
	}
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

// Package sim is a deterministic simulation harness for the versioned
// materialized-view machinery: a seeded virtual-time scheduler owning a
// single *rand.Rand and an event queue, a transport-compatible network
// fabric whose latencies, drops, partitions and node crashes are all
// drawn from that one source, and simulated processes (clients and
// update propagations) that run as coroutines interleaved only at
// scheduled event boundaries.
//
// A simulation run is a pure function of its seed: no wall-clock reads,
// no time.Sleep, no unsynchronized goroutines. Every delivered message
// and injected fault is recorded into an event trace whose hash is
// byte-identical across runs of the same seed, so any failure is
// replayable by re-running with the printed seed.
//
// The design follows the FoundationDB school of simulation testing: the
// scheduler executes exactly one event at a time, in (virtual time,
// scheduling sequence) order. Simulated processes are real goroutines,
// but an unbuffered channel handshake guarantees that a process only
// runs while the scheduler is blocked waiting for it — there is never
// more than one runnable goroutine, so the interleaving (and therefore
// every consumption of randomness) is deterministic.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"

	"vstore/internal/clock"
)

// event is one scheduled occurrence in virtual time.
type event struct {
	at     time.Duration
	seq    int64 // tie-breaker: scheduling order
	kind   string
	detail string
	fn     func() // nil once run or cancelled
	acct   *account
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// invariant is a continuously-checked assertion over simulation state.
type invariant struct {
	name  string
	check func() error
}

// Scheduler is the virtual-time event loop. All methods must be called
// from the scheduler's thread of control: either from event functions,
// or from process code (which runs exclusively while the scheduler is
// parked).
type Scheduler struct {
	rnd        *rand.Rand
	now        time.Duration
	seq        int64
	events     eventHeap
	trace      *Trace
	invariants []invariant
	checkEvery int
	sinceCheck int
	failure    error
	// failedInvariant/failedAt pin the first violation for reporting:
	// which named invariant broke and at what virtual instant. Failures
	// outside the invariant sweep (harness Fail calls) record the time
	// with an empty name.
	failedInvariant string
	failedAt        time.Duration
	// running is the process whose segment is executing right now, nil
	// while a plain event function runs. At most one process is ever
	// runnable, so this is all Await needs to know whom to park.
	running *proc
	// eventAcct is the cost account of the plain event running now: the
	// one current when it was scheduled. accounts lists every account
	// opened, background first; see costs.go.
	eventAcct *account
	accounts  []*account
}

// NewScheduler returns a scheduler whose entire behavior derives from
// seed. checkEvery sets how many events run between invariant sweeps
// (<= 1 means every event).
func NewScheduler(seed int64, checkEvery int) *Scheduler {
	if checkEvery < 1 {
		checkEvery = 1
	}
	return &Scheduler{
		rnd:        rand.New(rand.NewSource(seed)),
		trace:      &Trace{},
		checkEvery: checkEvery,
		accounts:   []*account{{class: classBackground}},
	}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Rand is the run's single randomness source.
func (s *Scheduler) Rand() *rand.Rand { return s.rnd }

// Trace returns the event trace recorded so far.
func (s *Scheduler) Trace() *Trace { return s.trace }

// AddInvariant registers an assertion checked after events; the first
// failure stops the run.
func (s *Scheduler) AddInvariant(name string, check func() error) {
	s.invariants = append(s.invariants, invariant{name: name, check: check})
}

// Schedule enqueues fn to run after delay of virtual time. kind and
// detail label the event in the trace. stop cancels the event if it has
// not run yet and reports whether it was in time; a cancelled event
// leaves no trace and does not advance the clock. The event runs on the
// cost account current now.
func (s *Scheduler) Schedule(delay time.Duration, kind, detail string, fn func()) (stop func() bool) {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	e := &event{at: s.now + delay, seq: s.seq, kind: kind, detail: detail, fn: fn, acct: s.account()}
	heap.Push(&s.events, e)
	return func() bool {
		pending := e.fn != nil
		e.fn = nil
		return pending
	}
}

// Record appends a non-event entry (acks, propagation milestones, …) to
// the trace at the current virtual time.
func (s *Scheduler) Record(kind, detail string) {
	s.trace.add(s.now, kind, detail)
}

// Fail stops the run with err after the current event completes.
// Callable from event functions and process code alike.
func (s *Scheduler) Fail(err error) {
	if s.failure == nil {
		s.failure = err
		s.failedAt = s.now
		s.trace.add(s.now, "violation", err.Error())
	}
}

// Run executes events until the queue drains or an invariant fails,
// and returns the failure (nil on a clean drain). Parked processes
// whose wakeups were never scheduled are a bug in the harness; Run
// cannot detect them beyond the queue draining with work unfinished,
// which the harness checks afterwards.
func (s *Scheduler) Run() error {
	for len(s.events) > 0 && s.failure == nil {
		e := heap.Pop(&s.events).(*event)
		if e.fn == nil {
			continue // cancelled
		}
		s.now = e.at
		s.trace.add(s.now, e.kind, e.detail)
		fn := e.fn
		e.fn = nil
		s.eventAcct = e.acct
		fn()
		if s.failure != nil {
			break
		}
		s.sinceCheck++
		if s.sinceCheck >= s.checkEvery {
			s.sinceCheck = 0
			s.runChecks()
		}
	}
	return s.failure
}

// runChecks sweeps the invariants in registration order.
func (s *Scheduler) runChecks() {
	for _, inv := range s.invariants {
		if err := inv.check(); err != nil {
			s.Fail(fmt.Errorf("invariant %q: %w", inv.name, err))
			if s.failedInvariant == "" {
				s.failedInvariant = inv.name
			}
			return
		}
	}
}

// --- Simulated processes ---------------------------------------------------

// proc is a simulated process: blocking-style code (quorum round trips,
// retry loops with backoff) that runs as a coroutine of the scheduler.
// The unbuffered resume/parked handshake guarantees the process runs
// only while the scheduler is blocked on it, so process segments are
// serialized with events and with each other.
type proc struct {
	resume chan struct{}
	parked chan struct{}
	acct   *account // what the process's requests are charged to
}

// Go schedules a new process to start after delay. name labels the
// spawn event in the trace. The process inherits the cost account
// current now.
func (s *Scheduler) Go(delay time.Duration, name string, fn func()) {
	s.Schedule(delay, "spawn", name, func() {
		p := &proc{resume: make(chan struct{}), parked: make(chan struct{}), acct: s.eventAcct}
		s.run(p, func() {
			go func() {
				fn()
				p.parked <- struct{}{}
			}()
		})
	})
}

// run makes p the running process, sets it going with start and blocks
// the caller — an event function, or the segment of another process
// that woke this one — until p parks again (or ends).
func (s *Scheduler) run(p *proc, start func()) {
	prev := s.running
	s.running = p
	start()
	<-p.parked
	s.running = prev
}

// Await parks the running process until wake is called. arm runs
// immediately (still in the process's exclusive segment) and must
// arrange for wake to be invoked exactly once from a future scheduled
// event — never synchronously, which would deadlock. Callers need no
// handle on their process: a coordinator's quorum round, reached through
// the fabric, parks whichever process it runs on.
func (s *Scheduler) Await(arm func(wake func())) {
	p := s.running
	if p == nil {
		panic("sim: blocking call outside a simulated process; start it with Scheduler.Go")
	}
	arm(func() { s.run(p, func() { p.resume <- struct{}{} }) })
	p.parked <- struct{}{}
	<-p.resume
}

// Sleep parks the running process for d of virtual time.
func (s *Scheduler) Sleep(d time.Duration) {
	s.Await(func(wake func()) { s.Schedule(d, "timer", "", wake) })
}

// Backoff sleeps for *d, then doubles it up to max: the pacing of every
// retry loop in the simulator.
func (s *Scheduler) Backoff(d *time.Duration, max time.Duration) {
	s.Sleep(*d)
	if *d *= 2; *d > max {
		*d = max
	}
}

// simClock is the scheduler as the clock.Clock the real components run
// on: virtual time, timers that are scheduler events, and a Sleep that
// parks the running process. What would need a goroutine of its own to
// deliver — a timer channel, a ticker — panics, like Await outside a
// process: nothing the simulator hosts may wait that way.
type simClock struct{ s *Scheduler }

var _ clock.Clock = simClock{}

func (c simClock) Now() time.Time        { return time.Unix(0, 0).Add(c.s.now) }
func (c simClock) Sleep(d time.Duration) { c.s.Sleep(d) }

func (c simClock) AfterFunc(d time.Duration, f func()) func() bool {
	return c.s.Schedule(d, "timer", "", f)
}

func (c simClock) After(time.Duration) <-chan time.Time { panic("sim: Clock.After needs a goroutine") }
func (c simClock) Ticker(time.Duration) clock.Ticker    { panic("sim: Clock.Ticker needs a goroutine") }

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
)

// event is one scheduled occurrence in virtual time.
type event struct {
	at     time.Duration
	seq    int64 // tie-breaker: scheduling order
	kind   string
	detail string
	fn     func()
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
// or from Proc code (which runs exclusively while the scheduler is
// parked).
type Scheduler struct {
	seed       int64
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
}

// NewScheduler returns a scheduler whose entire behavior derives from
// seed. checkEvery sets how many events run between invariant sweeps
// (<= 1 means every event).
func NewScheduler(seed int64, checkEvery int) *Scheduler {
	if checkEvery < 1 {
		checkEvery = 1
	}
	return &Scheduler{
		seed:       seed,
		rnd:        rand.New(rand.NewSource(seed)),
		trace:      &Trace{},
		checkEvery: checkEvery,
	}
}

// Seed returns the run's seed.
func (s *Scheduler) Seed() int64 { return s.seed }

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Rand is the run's single randomness source.
func (s *Scheduler) Rand() *rand.Rand { return s.rnd }

// Trace returns the event trace recorded so far.
func (s *Scheduler) Trace() *Trace { return s.trace }

// Failure returns the first invariant violation (or injected failure),
// if any.
func (s *Scheduler) Failure() error { return s.failure }

// FailedInvariant names the invariant behind Failure (empty when the
// failure came from outside the invariant sweep).
func (s *Scheduler) FailedInvariant() string { return s.failedInvariant }

// FailedAt returns the virtual time of the first failure.
func (s *Scheduler) FailedAt() time.Duration { return s.failedAt }

// AddInvariant registers an assertion checked after events; the first
// failure stops the run.
func (s *Scheduler) AddInvariant(name string, check func() error) {
	s.invariants = append(s.invariants, invariant{name: name, check: check})
}

// Schedule enqueues fn to run after delay of virtual time. kind and
// detail label the event in the trace.
func (s *Scheduler) Schedule(delay time.Duration, kind, detail string, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	heap.Push(&s.events, &event{at: s.now + delay, seq: s.seq, kind: kind, detail: detail, fn: fn})
}

// Record appends a non-event entry (acks, propagation milestones, …) to
// the trace at the current virtual time.
func (s *Scheduler) Record(kind, detail string) {
	s.trace.add(s.now, kind, detail)
}

// Fail stops the run with err after the current event completes.
// Callable from event functions and Proc code alike.
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
		s.now = e.at
		s.trace.add(s.now, e.kind, e.detail)
		e.fn()
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

// Proc is a simulated process: blocking-style code (quorum round trips,
// retry loops with backoff) that runs as a coroutine of the scheduler.
// The unbuffered resume/parked handshake guarantees the process runs
// only while the scheduler is blocked on it, so process segments are
// serialized with events and with each other.
type Proc struct {
	s      *Scheduler
	resume chan interface{}
	parked chan struct{}
}

// Go schedules a new process to start after delay. name labels the
// spawn event in the trace.
func (s *Scheduler) Go(delay time.Duration, name string, fn func(p *Proc)) {
	s.Schedule(delay, "spawn", name, func() {
		p := &Proc{s: s, resume: make(chan interface{}), parked: make(chan struct{})}
		go func() {
			fn(p)
			p.parked <- struct{}{}
		}()
		<-p.parked
	})
}

// Scheduler returns the process's scheduler.
func (p *Proc) Scheduler() *Scheduler { return p.s }

// Await parks the process until resolve is called, then returns the
// resolved value. start runs immediately (still in the process's
// exclusive segment) and must arrange for resolve to be invoked exactly
// once from a future scheduled event — never synchronously, which would
// deadlock. Multi-callback aggregations (quorum fan-outs) must guard
// their resolve so stragglers arriving after resolution only mutate
// state.
func (p *Proc) Await(start func(resolve func(v interface{}))) interface{} {
	start(func(v interface{}) {
		p.resume <- v
		<-p.parked
	})
	p.parked <- struct{}{}
	return <-p.resume
}

// Sleep parks the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	p.Await(func(resolve func(interface{})) {
		p.s.Schedule(d, "timer", "", func() { resolve(nil) })
	})
}

// Backoff sleeps for *d, then doubles it up to max: the pacing of every
// retry loop in the simulator.
func (p *Proc) Backoff(d *time.Duration, max time.Duration) {
	p.Sleep(*d)
	if *d *= 2; *d > max {
		*d = max
	}
}

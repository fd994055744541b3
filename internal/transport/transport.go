// Package transport provides the message fabric between coordinators
// and storage nodes. Two implementations share one interface: Direct
// delivers in-process with no artificial delay (unit tests, functional
// benchmarks), and Sim injects per-message latency, jitter, drops,
// node failures and partitions (the experiment harness, where relative
// network costs produce the paper's performance shapes).
package transport

import (
	"errors"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"vstore/internal/clock"
)

// Handler is implemented by storage nodes.
type Handler interface {
	HandleRequest(from NodeID, req Request) (Response, error)
}

// Result is the single value delivered for each Call.
type Result struct {
	From NodeID
	Resp Response
	Err  error
}

// Transport moves requests between nodes.
type Transport interface {
	// Register installs the handler for a node. Must be called before
	// any Call targeting that node.
	Register(id NodeID, h Handler)
	// Call asynchronously delivers req to node to and returns a
	// channel on which exactly one Result will arrive.
	Call(from, to NodeID, req Request) <-chan Result
	// SetDown marks a node unreachable (true) or reachable (false).
	SetDown(id NodeID, down bool)
	// Partition blocks (or unblocks) traffic between two nodes, in
	// both directions.
	Partition(a, b NodeID, blocked bool)
}

// Errors surfaced by the fabrics.
var (
	ErrNodeDown     = errors.New("transport: node down")
	ErrUnreachable  = errors.New("transport: nodes partitioned")
	ErrDropped      = errors.New("transport: message dropped")
	ErrUnregistered = errors.New("transport: unknown node")
)

type fabricState struct {
	mu          sync.RWMutex
	handlers    map[NodeID]Handler
	down        map[NodeID]bool
	partitioned map[[2]NodeID]bool
}

func newFabricState() fabricState {
	return fabricState{
		handlers:    map[NodeID]Handler{},
		down:        map[NodeID]bool{},
		partitioned: map[[2]NodeID]bool{},
	}
}

func pair(a, b NodeID) [2]NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]NodeID{a, b}
}

func (f *fabricState) Register(id NodeID, h Handler) {
	f.mu.Lock()
	f.handlers[id] = h
	f.mu.Unlock()
}

func (f *fabricState) SetDown(id NodeID, down bool) {
	f.mu.Lock()
	f.down[id] = down
	f.mu.Unlock()
}

func (f *fabricState) Partition(a, b NodeID, blocked bool) {
	f.mu.Lock()
	f.partitioned[pair(a, b)] = blocked
	f.mu.Unlock()
}

// route resolves the handler, or the error that should be reported.
// A node can always talk to itself even under partition.
func (f *fabricState) route(from, to NodeID) (Handler, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	h, ok := f.handlers[to]
	switch {
	case !ok:
		return nil, ErrUnregistered
	case f.down[to]:
		return nil, ErrNodeDown
	case from != to && f.partitioned[pair(from, to)]:
		return nil, ErrUnreachable
	}
	return h, nil
}

// --- Direct ---------------------------------------------------------------

// Direct is the zero-latency in-process fabric.
type Direct struct {
	fabricState
}

// NewDirect returns an empty direct fabric.
func NewDirect() *Direct {
	return &Direct{fabricState: newFabricState()}
}

// Call implements Transport. The handler runs on its own goroutine so
// concurrent Calls from one fan-out loop overlap handler execution —
// running them inline would serialize every quorum round on the
// caller, which collapses write throughput once rows are contended.
// Callers that genuinely want synchronous delivery (and no goroutine
// per message) use CallSync instead.
func (d *Direct) Call(from, to NodeID, req Request) <-chan Result {
	ch := make(chan Result, 1)
	go func() { ch <- d.CallSync(from, to, req) }()
	return ch
}

// SyncCaller is the optional fast path a fabric can offer when it
// completes calls synchronously on the caller's goroutine. Callers
// that detect it (via type assertion) can skip the channel, the
// per-call goroutine and the timeout timer of the asynchronous
// fan-out pattern entirely.
type SyncCaller interface {
	// CallSync delivers req and returns its Result directly.
	CallSync(from, to NodeID, req Request) Result
}

// EventCaller is the optional interface of a fabric that lives on one
// thread of control (the deterministic simulator's): every delivery is
// a scheduled event, and a caller that waits is a process the fabric
// parks and later resumes. Callers that detect it need no goroutine,
// channel or timer: every Send is answered exactly once, even if lost.
type EventCaller interface {
	// Send delivers req and hands its outcome to cb exactly once, from a
	// later event — never from inside Send. cb must not park.
	Send(from, to NodeID, req Request, cb func(Result))
	// Park suspends the running process until the wake function it hands
	// to arm is called. arm runs at once, on the caller; wake must be
	// called exactly once, from a later event.
	Park(arm func(wake func()))
	// Spawn starts fn as a process of its own, free to Park.
	Spawn(fn func())
}

// CallSync implements SyncCaller.
func (d *Direct) CallSync(from, to NodeID, req Request) Result {
	h, err := d.route(from, to)
	if err != nil {
		return Result{From: to, Err: err}
	}
	resp, err := h.HandleRequest(from, req)
	return Result{From: to, Resp: resp, Err: err}
}

// --- Sim ------------------------------------------------------------------

// SimOptions configure the simulated network.
type SimOptions struct {
	// Latency is the mean one-way message latency. Each Call pays it
	// twice (request and reply).
	Latency time.Duration
	// Jitter is the half-width of the uniform perturbation applied to
	// each one-way latency.
	Jitter time.Duration
	// DropProb is the probability that a request is silently lost; the
	// caller observes ErrDropped after DropDelay (modeling an RPC
	// timeout).
	DropProb float64
	// DropDelay is how long a lost message takes to surface as an
	// error. Default 20ms.
	DropDelay time.Duration
	// Seed makes the latency/drop sequence reproducible. When zero, a
	// fresh seed is generated and logged so any run can be replayed.
	Seed int64
	// Clock supplies sleeps; nil uses the wall clock. A virtual clock
	// lets the simulated latencies elapse in virtual time.
	Clock clock.Clock
	// Logf, when non-nil, replaces the standard logger for the
	// seed-at-construction message (tests route it to t.Logf).
	Logf func(format string, args ...any)
}

// seedCounter distinguishes fabrics auto-seeded in the same nanosecond.
var seedCounter atomic.Int64

// autoSeed generates a fabric seed when the caller supplied none.
func autoSeed(clk clock.Clock) int64 {
	s := clk.Now().UnixNano() ^ (seedCounter.Add(1) << 32)
	if s == 0 {
		s = 1
	}
	return s
}

// Sim is the latency-injecting fabric used by the experiment harness.
type Sim struct {
	fabricState
	opts SimOptions
	clk  clock.Clock

	rmu sync.Mutex
	rnd *rand.Rand
}

// NewSim returns a simulated fabric. All randomness (jitter, drops)
// comes from one per-fabric *rand.Rand seeded from SimOptions.Seed;
// when no seed is given one is generated and logged, so every run is
// replayable by construction.
func NewSim(opts SimOptions) *Sim {
	if opts.DropDelay == 0 {
		opts.DropDelay = 20 * time.Millisecond
	}
	clk := clock.Or(opts.Clock)
	if opts.Seed == 0 {
		opts.Seed = autoSeed(clk)
		logf := opts.Logf
		if logf == nil {
			logf = log.Printf
		}
		logf("transport: sim fabric seed=%d (set SimOptions.Seed to replay)", opts.Seed)
	}
	return &Sim{
		fabricState: newFabricState(),
		opts:        opts,
		clk:         clk,
		rnd:         rand.New(rand.NewSource(opts.Seed)),
	}
}

// Seed returns the seed the fabric's randomness derives from.
func (s *Sim) Seed() int64 { return s.opts.Seed }

// sample returns one one-way latency and whether the message drops.
func (s *Sim) sample() (time.Duration, bool) {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	lat := s.opts.Latency
	if s.opts.Jitter > 0 {
		lat += time.Duration(s.rnd.Int63n(int64(2*s.opts.Jitter))) - s.opts.Jitter
	}
	if lat < 0 {
		lat = 0
	}
	drop := s.opts.DropProb > 0 && s.rnd.Float64() < s.opts.DropProb
	return lat, drop
}

// Call implements Transport. Local calls (from == to) skip the network
// entirely, like a coordinator reading its own replica.
func (s *Sim) Call(from, to NodeID, req Request) <-chan Result {
	ch := make(chan Result, 1)
	h, err := s.route(from, to)
	if err != nil {
		go func() {
			s.clk.Sleep(s.opts.DropDelay)
			ch <- Result{From: to, Err: err}
		}()
		return ch
	}
	if from == to {
		go func() {
			resp, err := h.HandleRequest(from, req)
			ch <- Result{From: to, Resp: resp, Err: err}
		}()
		return ch
	}
	reqLat, reqDrop := s.sample()
	go func() {
		if reqDrop {
			s.clk.Sleep(s.opts.DropDelay)
			ch <- Result{From: to, Err: ErrDropped}
			return
		}
		s.clk.Sleep(reqLat)
		// Re-check reachability at delivery time so partitions and
		// failures injected mid-flight take effect.
		if _, err := s.route(from, to); err != nil {
			ch <- Result{From: to, Err: err}
			return
		}
		resp, err := h.HandleRequest(from, req)
		repLat, repDrop := s.sample()
		if repDrop {
			s.clk.Sleep(s.opts.DropDelay)
			ch <- Result{From: to, Err: ErrDropped}
			return
		}
		s.clk.Sleep(repLat)
		ch <- Result{From: to, Resp: resp, Err: err}
	}()
	return ch
}

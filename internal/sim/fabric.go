package sim

import (
	"fmt"
	"time"

	"vstore/internal/transport"
)

// Fabric is the deterministic network: message delivery, loss, node
// failure and partition are all scheduler events in virtual time. It
// implements transport.Transport so real components (the anti-entropy
// agent, storage nodes) plug in unchanged, and transport.EventCaller so
// the real coordinators run their quorum rounds on the scheduler.
type Fabric struct {
	s        *Scheduler
	opts     Config // the network part: Latency, Jitter, DropProb, DropDelay
	handlers map[transport.NodeID]transport.Handler
	down     map[transport.NodeID]bool
	blocked  map[[2]transport.NodeID]bool
}

// NewFabric returns a fabric driven by the scheduler, with cfg's
// network: all randomness (jitter, drops) comes from the scheduler's
// single rand source.
func NewFabric(s *Scheduler, cfg Config) *Fabric {
	return &Fabric{
		s:        s,
		opts:     cfg,
		handlers: map[transport.NodeID]transport.Handler{},
		down:     map[transport.NodeID]bool{},
		blocked:  map[[2]transport.NodeID]bool{},
	}
}

// Register implements transport.Transport.
func (f *Fabric) Register(id transport.NodeID, h transport.Handler) {
	f.handlers[id] = h
}

// SetDown implements transport.Transport: a down node is unreachable
// but keeps its state (the paper's temporary failure model).
func (f *Fabric) SetDown(id transport.NodeID, down bool) {
	f.down[id] = down
}

// Partition implements transport.Transport.
func (f *Fabric) Partition(a, b transport.NodeID, blocked bool) {
	f.blocked[[2]transport.NodeID{min(a, b), max(a, b)}] = blocked
}

// route reports whether from can currently reach to. A node always
// reaches itself, even when partitioned.
func (f *Fabric) route(from, to transport.NodeID) error {
	if _, ok := f.handlers[to]; !ok {
		return transport.ErrUnregistered
	}
	if f.down[to] {
		return transport.ErrNodeDown
	}
	if from != to && f.blocked[[2]transport.NodeID{min(from, to), max(from, to)}] {
		return transport.ErrUnreachable
	}
	return nil
}

// hop draws the latency and drop decision of one message from the
// scheduler's rand. A node talks to itself without a network hop.
func (f *Fabric) hop(from, to transport.NodeID) (time.Duration, bool) {
	if from == to {
		return 0, false
	}
	rnd := f.s.Rand()
	lat := f.opts.Latency
	if f.opts.Jitter > 0 {
		lat += time.Duration(rnd.Int63n(int64(2*f.opts.Jitter))) - f.opts.Jitter
	}
	drop := f.opts.DropProb > 0 && rnd.Float64() < f.opts.DropProb
	return max(lat, 0), drop
}

// reqKind compactly names a request type for the trace.
func reqKind(req transport.Request) string {
	switch r := req.(type) {
	case transport.PutReq:
		if len(r.ReturnVersionsOf) > 0 {
			return "put+preread"
		}
		return "put"
	case transport.GetReq:
		return "get"
	case transport.GetDigestReq:
		return "getdigest"
	case transport.MultiGetReq:
		return "multiget"
	case transport.ApplyEntriesReq:
		return "apply"
	case transport.DigestReq:
		return "digest"
	case transport.BucketFetchReq:
		return "bucket"
	case transport.IndexQueryReq:
		return "index"
	default:
		return fmt.Sprintf("%T", req)
	}
}

// Park implements transport.EventCaller: it parks the running process
// until wake is called from a later event.
func (f *Fabric) Park(arm func(wake func())) { f.s.Await(arm) }

// Spawn implements transport.EventCaller: fn becomes a process of its
// own at the current virtual instant.
func (f *Fabric) Spawn(fn func()) { f.s.Go(0, "coord-background", fn) }

// Send implements transport.EventCaller: it delivers req to node to and
// invokes cb exactly once with the outcome, from a future scheduled
// event. The request executes at delivery time even when the reply is
// subsequently lost — at-least-once semantics, which is what makes
// partial writes and retried duplicates reachable states.
func (f *Fabric) Send(from, to transport.NodeID, req transport.Request, cb func(transport.Result)) {
	kind := reqKind(req)
	acct := f.s.account()
	acct.charge(kind)
	there := fmt.Sprintf("%d->%d %s", from, to, kind)
	// lost surfaces a message that went nowhere, an RPC timeout later.
	lost := func(kind, detail string, err error) {
		f.s.Schedule(f.opts.DropDelay, kind, detail, func() { cb(transport.Result{From: to, Err: err}) })
	}
	if err := f.route(from, to); err != nil {
		lost("neterr", fmt.Sprintf("%s: %v", there, err), err)
		return
	}
	lat, drop := f.hop(from, to)
	if drop {
		lost("drop", there, transport.ErrDropped)
		return
	}
	f.s.Schedule(lat, "deliver", there, func() {
		// Re-check at delivery time so faults injected mid-flight count.
		if err := f.route(from, to); err != nil {
			cb(transport.Result{From: to, Err: err})
			return
		}
		resp, err := f.handlers[to].HandleRequest(from, req)
		back := fmt.Sprintf("%d->%d %s", to, from, kind)
		lat, drop := f.hop(to, from)
		if drop {
			lost("drop", back+" reply", transport.ErrDropped)
			return
		}
		f.s.Schedule(lat, "reply", back, func() {
			if put, ok := req.(transport.PutReq); ok && err == nil && put.Table == baseTable {
				acct.acks = append(acct.acks, putAck{to, put})
				if acct.late != nil {
					acct.late(putAck{to, put})
				}
			}
			cb(transport.Result{From: to, Resp: resp, Err: err})
		})
	})
}

// Call implements transport.Transport synchronously: the exchange
// happens inline at the current virtual instant (respecting failures
// and partitions but not latency). It exists so synchronous components
// — the anti-entropy agent's RunRound — execute deterministically when
// invoked from a scheduler event. It must only be called from the
// scheduler's thread of control.
func (f *Fabric) Call(from, to transport.NodeID, req transport.Request) <-chan transport.Result {
	ch := make(chan transport.Result, 1)
	f.s.account().charge(reqKind(req))
	if err := f.route(from, to); err != nil {
		ch <- transport.Result{From: to, Err: err}
		return ch
	}
	resp, err := f.handlers[to].HandleRequest(from, req)
	ch <- transport.Result{From: to, Resp: resp, Err: err}
	return ch
}

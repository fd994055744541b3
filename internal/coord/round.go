package coord

import (
	"context"
	"errors"
	"fmt"

	"vstore/internal/transport"
)

// This file is the coordinator's one quorum round. Every operation —
// Put with or without its pre-read, GetVersions, the digest and the
// full read, MultiGet's per-replica-set read, repair and hint pushes —
// is an exchange run by round; nothing else in the package sends a
// request, waits on a reply or knows which fabric it is on (Go and
// Park, which start background work and suspend a caller for the layers
// above, are the two other places that ask).

// kind is what a round is for. It fixes how a synchronous fabric runs
// the round (see roundSync): a property of the request, not a setting.
type kind uint8

const (
	readKind    kind = iota // Get, digest read, MultiGet, repair's re-read
	preReadKind             // GetVersions
	writeKind               // Put with or without pre-read, repair and hint pushes
)

// quorum is where a round goes: a record's replicas and how many of
// them must answer.
type quorum struct {
	replicas []transport.NodeID
	need     int
}

// quorumFor places (table, row) and clamps need to [1, replicas].
func (c *Coordinator) quorumFor(table, row string, need int) (quorum, error) {
	replicas := c.ring.ReplicasForRow(table, row, c.opts.N)
	if len(replicas) == 0 {
		return quorum{}, fmt.Errorf("coord: no replicas for %s/%s", table, row)
	}
	return quorum{replicas, min(max(need, 1), len(replicas))}, nil
}

// exchange is an operation's half of a round: which request goes to
// which replica, and what a reply means. A round calls its methods one
// at a time, never concurrently.
type exchange interface {
	// request returns what to send to replica to.
	request(to transport.NodeID) transport.Request
	// fold takes one replica's result (res.From is the replica asked; a
	// timeout or a shutdown arrives as res.Err) and returns how many
	// replicas it settles in the round's favour: 1, or 0 with why it
	// counts against. A reply that cannot be judged yet returns (0, nil)
	// and is counted by the later reply that lets fold judge it; a veto
	// fails the round whatever the count.
	fold(res transport.Result) (acks int, err error)
	// detach runs on the caller's goroutine when a draining round is
	// about to return with replies outstanding: folds from here on run
	// concurrently with the caller and must not touch what it is handed.
	detach()
	// settled runs after the last reply of a successful draining round
	// has been folded.
	settled()
}

// plain is embedded by exchanges that send every replica the same
// request, boxed once; its hooks do nothing.
type plain struct{ req transport.Request }

func (p plain) request(transport.NodeID) transport.Request { return p.req }
func (plain) detach()                                      {}
func (plain) settled()                                     {}

// veto is a fold verdict that fails its round at once.
type veto struct{ error }

// errShutdown fails calls abandoned because the coordinator is closing.
var errShutdown = errors.New("coord: shutting down")

// tally counts fold verdicts toward a round's outcome: won once need
// replicas answered, lost once more than spare did not — or at once on
// a veto, a done context or shutdown, which use up every spare.
type tally struct {
	need, spare int
	acks, nacks int
	cause       error
}

func (t *tally) count(acks int, err error) {
	t.acks += acks
	if _, vetoed := err.(veto); vetoed {
		t.fail(err)
	} else if err != nil {
		t.nacks, t.cause = t.nacks+1, err
	}
}

func (t *tally) fail(cause error) { t.nacks, t.cause = t.spare+1, cause }

func (t *tally) lost() bool { return t.nacks > t.spare }
func (t *tally) won() bool  { return !t.lost() && t.acks >= t.need }

// round runs one quorum round of exchange x over q and returns nil once
// q.need replicas answered, else ErrQuorumFailed wrapping the cause. A
// context already done sends nothing. With drain set, replies that
// arrive after the round is won are still folded, and x.settled runs
// after the last; without it a won round asks and folds no more. A
// lost round is abandoned: its outstanding replies are dropped.
func (c *Coordinator) round(ctx context.Context, k kind, q quorum, drain bool, x exchange) error {
	t := tally{need: q.need, spare: len(q.replicas) - q.need}
	switch {
	case ctx.Err() != nil:
		t.fail(ctx.Err())
	case c.sync != nil:
		c.roundSync(k, q, drain, x, &t)
	case c.event != nil:
		t = c.roundEvent(q, drain, x, t) // by value: the callbacks keep theirs
	default:
		c.roundAsync(ctx, q, drain, x, &t)
	}
	if t.won() {
		return nil
	}
	return fmt.Errorf("%w: %d/%d replies: %w", ErrQuorumFailed, t.acks, t.need, t.cause)
}

// roundSync runs a round over a fabric that completes calls on the
// caller's goroutine: no channel, timer or goroutine made per call, and
// every reply is folded — and counted, so a late veto still fails the
// round — before it returns. Read rounds visit the replicas serially;
// write and pre-read rounds overlap their handlers first.
func (c *Coordinator) roundSync(k kind, q quorum, drain bool, x exchange, t *tally) {
	var buf [8]transport.Result // on the stack for any sane replication factor
	var results []transport.Result
	if k != readKind && len(q.replicas) > 1 {
		results = c.overlapped(q.replicas, x, buf[:0])
	}
	for i, rep := range q.replicas {
		if t.lost() || t.won() && !drain {
			return
		}
		var res transport.Result
		if results != nil {
			res = results[i]
		} else {
			res = c.sync.CallSync(c.self, rep, x.request(rep))
		}
		res.From = rep
		t.count(x.fold(res))
	}
	if t.won() && drain {
		x.settled()
	}
}

// overlapped asks every replica at once over the synchronous fabric —
// parked helpers for all but the last replica, which runs on the
// caller — and returns their results, appended to results, once all
// have answered. Write and pre-read rounds sit on the contended path,
// where a serial loop triples the latency of every round: propagations
// hold their row lock per round, slower rounds mean more failed guesses
// mean more rounds, and that backlog snowballs (the Fig 8 collapse).
// After Close there are no helpers and the calls run one after another
// on the caller.
func (c *Coordinator) overlapped(replicas []transport.NodeID, x exchange, results []transport.Result) []transport.Result {
	var hbuf [8]*helper
	last := len(replicas) - 1
	hs := c.helpers(hbuf[:0], last)
	for i, rep := range replicas[:last] {
		if hs != nil {
			hs[i].calls <- call{rep, x.request(rep)}
		} else {
			results = append(results, c.sync.CallSync(c.self, rep, x.request(rep)))
		}
	}
	res := c.sync.CallSync(c.self, replicas[last], x.request(replicas[last]))
	for _, h := range hs {
		results = append(results, <-h.results)
	}
	c.park(hs)
	return append(results, res)
}

// A helper is a goroutine of the coordinator's that makes one replica
// call of an overlapped round at a time. Helpers are kept in a free
// list that grows to the most calls ever in flight at once and is
// never capped: a bounded pool would queue the calls of a busy moment
// behind each other, the serial rounds overlapped exists to avoid.
type helper struct {
	calls   chan call
	results chan transport.Result
}

// call is one request for a helper to send.
type call struct {
	to  transport.NodeID
	req transport.Request
}

// helpers appends n idle helpers to hs, starting any the free list
// lacks, and returns nil once the coordinator is closing.
func (c *Coordinator) helpers(hs []*helper, n int) []*helper {
	c.trackMu.Lock()
	defer c.trackMu.Unlock()
	if c.stopped {
		return nil
	}
	take := min(n, len(c.idle))
	hs = append(hs, c.idle[len(c.idle)-take:]...)
	c.idle = c.idle[:len(c.idle)-take]
	for len(hs) < n {
		h := &helper{calls: make(chan call), results: make(chan transport.Result, 1)}
		c.wg.Add(1)
		go c.help(h)
		hs = append(hs, h)
	}
	return hs
}

// park returns helpers to the free list — or, once Close has ended the
// idle ones, ends them too.
func (c *Coordinator) park(hs []*helper) {
	c.trackMu.Lock()
	defer c.trackMu.Unlock()
	if c.stopped {
		for _, h := range hs {
			close(h.calls)
		}
		return
	}
	c.idle = append(c.idle, hs...)
}

// help is a helper's loop: it runs until Close or park closes its call
// channel.
func (c *Coordinator) help(h *helper) {
	defer c.wg.Done()
	for cl := range h.calls {
		h.results <- c.sync.CallSync(c.self, cl.to, cl.req)
	}
}

// roundAsync runs a round over an asynchronous fabric: every request
// is sent at once, the round returns as soon as it is won or lost, and
// a won draining round folds its stragglers on a goroutine Close awaits.
func (c *Coordinator) roundAsync(ctx context.Context, q quorum, drain bool, x exchange, t *tally) {
	// One send per replica, so forwarders never block.
	replies := make(chan transport.Result, len(q.replicas))
	for _, rep := range q.replicas {
		go c.forward(rep, c.trans.Call(c.self, rep, x.request(rep)), replies)
	}
	pending := len(q.replicas)
	for !t.won() && !t.lost() { // decided by the last reply at the latest
		select {
		case res := <-replies:
			pending--
			t.count(x.fold(res))
		case <-ctx.Done():
			t.fail(ctx.Err())
		case <-c.stop:
			t.fail(errShutdown)
		}
	}
	switch {
	case !t.won() || !drain:
	case pending == 0:
		x.settled()
	default:
		x.detach()
		c.Go(func() {
			for ; pending > 0; pending-- {
				select {
				case res := <-replies:
					x.fold(res) // counted by nobody: the round has returned
				case <-c.stop:
					return
				}
			}
			x.settled()
		})
	}
}

// roundEvent runs a round over an event fabric, with roundAsync's
// semantics and none of its machinery: the caller parks, the fabric
// delivers each reply as an event that folds it, and the reply that
// decides the round wakes the caller. Stragglers of a won draining round
// are folded as they are delivered; settled, which may run rounds of its
// own, gets a process of its own after the last. The fabric answers
// every send exactly once, so there is nothing to time out or to stop.
func (c *Coordinator) roundEvent(q quorum, drain bool, x exchange, t tally) tally {
	pending, returned := len(q.replicas), false
	c.event.Park(func(wake func()) {
		for _, rep := range q.replicas {
			c.event.Send(c.self, rep, x.request(rep), func(res transport.Result) {
				res.From = rep
				pending--
				switch {
				case !returned:
					t.count(x.fold(res))
					if returned = t.won() || t.lost(); returned {
						if t.won() && drain && pending > 0 {
							x.detach()
						}
						wake()
					}
				case t.won() && drain:
					x.fold(res) // counted by nobody: the round has returned
					if pending == 0 {
						c.Go(x.settled)
					}
				}
			})
		}
	})
	if t.won() && drain && pending == 0 {
		x.settled()
	}
	return t
}

// forward delivers one call's result to its round — or its timeout, or
// the shutdown.
func (c *Coordinator) forward(rep transport.NodeID, ch <-chan transport.Result, replies chan<- transport.Result) {
	var res transport.Result
	select {
	case res = <-ch:
	case <-c.clk.After(c.opts.RequestTimeout):
		res.Err = context.DeadlineExceeded
	case <-c.stop:
		res.Err = errShutdown
	}
	res.From = rep
	replies <- res
}

// push delivers already-timestamped entries to one replica (read
// repair, hint replay): a write round over one replica.
func (c *Coordinator) push(to transport.NodeID, req transport.ApplyEntriesReq) error {
	return c.round(context.Background(), writeKind, quorum{[]transport.NodeID{to}, 1}, false, &ack{plain{req}})
}

// ack is the exchange of a push: the reply counts, nothing is kept.
type ack struct{ plain }

func (*ack) fold(res transport.Result) (int, error) {
	if _, ok := res.Resp.(transport.AckResp); !ok || res.Err != nil {
		return 0, failure(res)
	}
	return 1, nil
}

// failure is why res does not carry the response its round asked for.
func failure(res transport.Result) error {
	if res.Err != nil {
		return res.Err
	}
	return fmt.Errorf("coord: unexpected response %T from node %d", res.Resp, res.From)
}

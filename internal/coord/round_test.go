package coord

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"vstore/internal/model"
	"vstore/internal/transport"
)

// requestsHandled sums every node's handled requests, all kinds.
func (h *harness) requestsHandled() int64 {
	var n int64
	for _, nd := range h.nodes {
		for _, v := range nd.RequestCounts() {
			n += v
		}
	}
	return n
}

// A context already done has one outcome on either fabric: no request
// is sent, and the operation fails with ErrQuorumFailed wrapping the
// context's error. (Before the one round, the synchronous bodies never
// looked at ctx: a cancelled Put wrote all three replicas and returned
// nil.)
func TestCancelledContextSendsNothing(t *testing.T) {
	forEachFabric(t, func(t *testing.T, tr transport.Transport) {
		h := newHarness(t, tr, 3, Options{N: 3, HintReplayInterval: -1})
		c := h.coords[0]
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		up := []model.ColumnUpdate{model.Update("c", []byte("v"), 1)}
		ops := map[string]func() error{
			"Put": func() error { return c.Put(ctx, "t", "r", up, 2) },
			"PutWithPreRead": func() error {
				_, err := c.PutWithPreRead(ctx, "t", "r", up, 2, []string{"c"})
				return err
			},
			"Get":         func() error { _, err := c.Get(ctx, "t", "r", []string{"c"}, 2, false); return err },
			"Get r=1":     func() error { _, err := c.Get(ctx, "t", "r", []string{"c"}, 1, false); return err },
			"GetVersions": func() error { _, err := c.GetVersions(ctx, "t", "r", []string{"c"}, 2); return err },
			"MultiGet": func() error {
				_, err := c.MultiGet(ctx, "t", []RowRead{{Row: "r", Columns: []string{"c"}}}, 2)
				return err
			},
		}
		for name, op := range ops {
			err := op()
			if !errors.Is(err, ErrQuorumFailed) || !errors.Is(err, context.Canceled) {
				t.Errorf("%s on a cancelled context: err = %v, want ErrQuorumFailed wrapping context.Canceled", name, err)
			}
		}
		if got := h.requestsHandled(); got != 0 {
			t.Errorf("replicas handled %d requests, want none", got)
		}
		if got := h.replicasHolding("t", "r", "c", "v"); got != 0 {
			t.Errorf("%d replicas hold the cancelled write", got)
		}
		if st := c.Stats(); st.QuorumFails != 2 || st.HintsStored != 0 {
			t.Errorf("stats = %+v, want the two failed writes counted and no hints", st)
		}
	})
}

// gate wraps a replica's handler so a test decides when it answers.
type gate struct {
	inner   transport.Handler
	arrived chan<- struct{} // one send per request, before it parks
	release chan struct{}
}

func (g *gate) HandleRequest(from transport.NodeID, req transport.Request) (transport.Response, error) {
	g.arrived <- struct{}{}
	<-g.release
	return g.inner.HandleRequest(from, req)
}

// gateReplica holds every request to rep until the returned function
// is called (it is also called at cleanup, so nothing stays parked).
func (h *harness) gateReplica(t *testing.T, rep transport.NodeID) (open func()) {
	if h.arrived == nil {
		h.arrived = make(chan struct{}, 64) // more than any test here sends while gated
	}
	g := &gate{inner: h.nodes[rep], arrived: h.arrived, release: make(chan struct{})}
	h.trans.Register(rep, g)
	opened := false
	open = func() {
		if !opened {
			opened = true
			close(g.release)
		}
	}
	t.Cleanup(open)
	return open
}

func asyncFabric() transport.Transport { return transport.NewSim(transport.SimOptions{Seed: 1}) }

// On an asynchronous fabric a Put returns at quorum and the straggler's
// pre-image still reaches the collectors once it answers.
func TestAsyncPutReturnsAtQuorumStragglerReachesCollectors(t *testing.T) {
	h := newHarness(t, asyncFabric(), 3, Options{N: 3, RequestTimeout: 10 * time.Second, DisableReadRepair: true})
	c := h.coords[0]
	reps := c.ReplicasFor("t", "r")
	// Three replicas, three distinct pre-images.
	for i, rep := range reps {
		divergeReplica(t, h, c, rep, "t", "r", "vk", fmt.Sprintf("v%d", i), int64(i+1))
	}
	open := h.gateReplica(t, reps[2])
	cs, err := c.PutWithPreRead(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("vk", []byte("final"), 100)}, 2, []string{"vk"})
	if err != nil {
		t.Fatalf("W=2 with one replica silent: %v", err)
	}
	vc := cs.Of("vk")
	if vc.Complete() || len(vc.Versions()) != 2 {
		t.Fatalf("at quorum: complete=%v versions=%v, want the two answering replicas' pre-images", vc.Complete(), vc.Versions())
	}
	if got := h.replicasHolding("t", "r", "vk", "final"); got != 2 {
		t.Fatalf("%d replicas hold the write while one is held back, want 2", got)
	}
	open()
	waitFor(t, 5*time.Second, vc.Complete) // the straggler's reply completes the collector
	if got := len(vc.Versions()); got != 3 {
		t.Fatalf("collected %d versions, want all three pre-images: %v", got, vc.Versions())
	}
	if st := c.Stats(); st.HintsStored != 0 || st.QuorumFails != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// GetVersions, the pre-read with no Put to ride on, has the same shape.
func TestAsyncGetVersionsStragglerReachesCollectors(t *testing.T) {
	h := newHarness(t, asyncFabric(), 3, Options{N: 3, RequestTimeout: 10 * time.Second, DisableReadRepair: true})
	c := h.coords[0]
	reps := c.ReplicasFor("t", "r")
	for i, rep := range reps {
		divergeReplica(t, h, c, rep, "t", "r", "vk", fmt.Sprintf("v%d", i), int64(i+1))
	}
	open := h.gateReplica(t, reps[0])
	cs, err := c.GetVersions(ctxT(t), "t", "r", []string{"vk"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	vc := cs.Of("vk")
	if vc.Complete() || len(vc.Versions()) != 2 {
		t.Fatalf("at quorum: complete=%v versions=%v", vc.Complete(), vc.Versions())
	}
	open()
	waitFor(t, 5*time.Second, vc.Complete) // the straggler's reply completes the collector
	if got := len(vc.Versions()); got != 3 {
		t.Fatalf("collected %d versions, want 3: %v", got, vc.Versions())
	}
}

// The asynchronous full read answers from its quorum, hands the caller
// a row the stragglers cannot touch, and repairs every responder once
// the last reply is in — the straggler included.
func TestAsyncFullReadRepairsStraggler(t *testing.T) {
	h := newHarness(t, asyncFabric(), 3, Options{N: 3, RequestTimeout: 10 * time.Second})
	c := h.coords[0]
	reps := c.ReplicasFor("t", "r")
	// The held-back replica alone has the newest version.
	divergeReplica(t, h, c, reps[0], "t", "r", "c", "old", 1)
	divergeReplica(t, h, c, reps[1], "t", "r", "c", "old", 1)
	divergeReplica(t, h, c, reps[2], "t", "r", "c", "new", 2)
	open := h.gateReplica(t, reps[2])
	row, err := c.Get(ctxT(t), "t", "r", []string{"c"}, 1, false) // r=1: no digest round
	if err != nil {
		t.Fatal(err)
	}
	if string(row[0].Value) != "old" {
		t.Fatalf("read %q from the answering replicas, want old", row[0].Value)
	}
	open()
	waitFor(t, 5*time.Second, func() bool { return h.replicasHolding("t", "r", "c", "new") == 3 })
	if string(row[0].Value) != "old" {
		t.Fatalf("the caller's row changed under it: %q", row[0].Value)
	}
	if st := c.Stats(); st.ReadRepairs != 2 {
		t.Fatalf("stats = %+v, want the two stale replicas repaired", st)
	}
}

// Close abandons rounds in flight at once: nothing waits out
// RequestTimeout for a replica that will not answer.
func TestCloseAbandonsRoundsInFlight(t *testing.T) {
	h := newHarness(t, asyncFabric(), 3, Options{N: 3, RequestTimeout: time.Hour, HintReplayInterval: -1})
	c := h.coords[0]
	for _, rep := range c.ReplicasFor("t", "r") {
		h.gateReplica(t, rep)
	}
	errs := make(chan error, 2)
	go func() {
		errs <- c.Put(context.Background(), "t", "r", []model.ColumnUpdate{model.Update("c", []byte("v"), 1)}, 2)
	}()
	go func() {
		_, err := c.Get(context.Background(), "t", "r", []string{"c"}, 2, false)
		errs <- err
	}()
	for i := 0; i < 6; i++ { // both rounds have sent to all three replicas and are parked
		<-h.arrived
	}
	closed := make(chan struct{})
	go func() { c.Close(); close(closed) }()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrQuorumFailed) {
				t.Errorf("err = %v, want ErrQuorumFailed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a round outlived Close")
		}
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
}

// scripted is an event fabric (transport.EventCaller) on the test's own
// goroutine: a Send runs the replica's handler at once and queues the
// reply, and a parked caller is resumed by delivering queued replies —
// in the replica order the test states, else in the order sent. By
// default Park delivers everything there is before it returns and a
// spawned process runs on the spot, so a round's stragglers and
// background work are done when the operation returns; with hold set
// Park returns as soon as the round wakes it and what is left waits for
// drain.
type scripted struct {
	d       *transport.Direct
	order   []transport.NodeID
	hold    bool
	replies []scriptedReply
	procs   []func()
}

type scriptedReply struct {
	to      transport.NodeID
	deliver func()
}

func newScripted() *scripted { return &scripted{d: transport.NewDirect()} }

func (f *scripted) Register(id transport.NodeID, h transport.Handler) { f.d.Register(id, h) }
func (f *scripted) SetDown(id transport.NodeID, down bool)            { f.d.SetDown(id, down) }
func (f *scripted) Partition(a, b transport.NodeID, blocked bool)     { f.d.Partition(a, b, blocked) }
func (f *scripted) Call(from, to transport.NodeID, req transport.Request) <-chan transport.Result {
	return f.d.Call(from, to, req)
}

func (f *scripted) Send(from, to transport.NodeID, req transport.Request, cb func(transport.Result)) {
	res := f.d.CallSync(from, to, req)
	f.replies = append(f.replies, scriptedReply{to, func() { cb(res) }})
}

func (f *scripted) Spawn(fn func()) {
	if f.hold {
		f.procs = append(f.procs, fn)
	} else {
		fn() // parking inside a delivery is just a nested delivery loop here
	}
}

func (f *scripted) Park(arm func(wake func())) {
	woken := false
	arm(func() { woken = true })
	for !(woken && f.hold) && f.step() {
	}
	if !woken {
		panic("scripted fabric: parked with nothing left to deliver")
	}
}

// step delivers the queued reply of the replica earliest in order (first
// sent among equals), else runs the oldest spawned process; it reports
// whether there was either.
func (f *scripted) step() bool {
	if len(f.replies) == 0 {
		if len(f.procs) == 0 {
			return false
		}
		fn := f.procs[0]
		f.procs = f.procs[1:]
		fn()
		return true
	}
	rank := func(r scriptedReply) int {
		if i := slices.Index(f.order, r.to); i >= 0 {
			return i
		}
		return len(f.order)
	}
	next := 0
	for i, r := range f.replies {
		if rank(r) < rank(f.replies[next]) {
			next = i
		}
	}
	r := f.replies[next]
	f.replies = slices.Delete(f.replies, next, next+1)
	r.deliver()
	return true
}

func (f *scripted) drain() {
	for f.step() {
	}
}

// scriptedHarness is three replicas over a scripted fabric in hold
// mode, every coordinator a replica of every row, coordinator 0 in
// charge. others are the two replicas that are not the coordinator.
func scriptedHarness(t *testing.T, opts Options) (f *scripted, h *harness, c *Coordinator, others []transport.NodeID) {
	f = newScripted()
	opts.N, opts.HintReplayInterval = 3, -1
	h = newHarness(t, f, 3, opts)
	c = h.coords[0]
	for _, rep := range c.ReplicasFor("t", "r") {
		if rep != c.Self() {
			others = append(others, rep)
		}
	}
	f.hold = true
	return f, h, c, others
}

// Digests that arrive before the full row wait in the early buffer and
// are judged when it lands: the digest read is served all the same.
func TestEventDigestsBeforeFullRow(t *testing.T) {
	f, _, c, others := scriptedHarness(t, Options{})
	if err := c.Put(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("c", []byte("v"), 1)}, 3); err != nil {
		t.Fatal(err)
	}
	f.order = []transport.NodeID{others[0], others[1], c.Self()} // the full row comes from the coordinator's own node
	row, err := c.Get(ctxT(t), "t", "r", []string{"c"}, 3, false)
	if err != nil || string(row[0].Value) != "v" {
		t.Fatalf("Get = %v, %v", row, err)
	}
	if st := c.Stats(); st.DigestReads != 1 || st.DigestMismatches != 0 {
		t.Fatalf("stats = %+v, want one digest read", st)
	}
}

// A digest that disagrees before the round returns vetoes it — even one
// that was waiting in the early buffer — and the full read that follows
// returns at its quorum, merges the straggler afterwards and repairs
// both stale replicas once the last reply is in.
func TestEventMismatchBeforeReturnFallsBack(t *testing.T) {
	f, h, c, others := scriptedHarness(t, Options{})
	if err := c.Put(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("c", []byte("old"), 1)}, 3); err != nil {
		t.Fatal(err)
	}
	divergeReplica(t, h, c, others[0], "t", "r", "c", "new", 2)
	f.order = []transport.NodeID{others[0], c.Self(), others[1]}
	row, err := c.Get(ctxT(t), "t", "r", []string{"c"}, 2, false)
	if err != nil || string(row[0].Value) != "new" {
		t.Fatalf("Get = %v, %v, want the diverged replica's newer value", row, err)
	}
	if st := c.Stats(); st.DigestReads != 0 || st.DigestMismatches != 1 || st.ReadRepairs != 0 {
		t.Fatalf("stats = %+v, want a vetoed digest read and no repair before the last reply", st)
	}
	f.drain()
	if got := h.replicasHolding("t", "r", "c", "new"); got != 3 {
		t.Fatalf("%d replicas hold the newer value after the straggler settled the read, want 3", got)
	}
	if st := c.Stats(); st.ReadRepairs != 2 {
		t.Fatalf("stats = %+v, want both stale replicas repaired", st)
	}
}

// A digest that disagrees after the read has returned cannot veto it:
// its replica is re-read and repaired once every reply is in, and no
// other replica sees repair traffic.
func TestEventMismatchAfterReturnRepairsOnlyStale(t *testing.T) {
	f, h, c, others := scriptedHarness(t, Options{})
	if err := c.Put(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("c", []byte("old"), 1)}, 3); err != nil {
		t.Fatal(err)
	}
	stale := others[1]
	divergeReplica(t, h, c, c.Self(), "t", "r", "c", "new", 2)
	divergeReplica(t, h, c, others[0], "t", "r", "c", "new", 2)
	f.order = []transport.NodeID{c.Self(), others[0], stale}
	row, err := c.Get(ctxT(t), "t", "r", []string{"c"}, 2, false)
	if err != nil || string(row[0].Value) != "new" {
		t.Fatalf("Get = %v, %v", row, err)
	}
	if st := c.Stats(); st.DigestReads != 1 || st.DigestMismatches != 0 {
		t.Fatalf("stats = %+v, want the digest read served before the stale digest arrived", st)
	}
	f.drain()
	if st := c.Stats(); st.DigestMismatches != 1 || st.ReadRepairs != 1 {
		t.Fatalf("stats = %+v, want the late mismatch counted and one repair", st)
	}
	for _, n := range h.nodes {
		want := int64(0)
		if n.ID() == stale {
			want = 1
		}
		if got := n.RequestCounts()["apply"]; got != want {
			t.Errorf("node %d handled %d repair pushes, want %d", n.ID(), got, want)
		}
	}
	if got := h.replicasHolding("t", "r", "c", "new"); got != 3 {
		t.Fatalf("%d replicas hold the newer value, want 3", got)
	}
}

// A Put returns at its quorum; the straggler's pre-image reaches the
// collectors when its reply is delivered.
func TestEventStragglerReachesCollectors(t *testing.T) {
	f, h, c, others := scriptedHarness(t, Options{DisableReadRepair: true})
	reps := []transport.NodeID{c.Self(), others[0], others[1]}
	for i, rep := range reps {
		divergeReplica(t, h, c, rep, "t", "r", "vk", fmt.Sprintf("v%d", i), int64(i+1))
	}
	f.order = reps
	cs, err := c.PutWithPreRead(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("vk", []byte("final"), 100)}, 2, []string{"vk"})
	if err != nil {
		t.Fatal(err)
	}
	vc := cs.Of("vk")
	if vc.Complete() || len(vc.Versions()) != 2 {
		t.Fatalf("at quorum: complete=%v versions=%v, want the two delivered pre-images", vc.Complete(), vc.Versions())
	}
	f.drain()
	if !vc.Complete() || len(vc.Versions()) != 3 {
		t.Fatalf("after the straggler: complete=%v versions=%v, want all three pre-images", vc.Complete(), vc.Versions())
	}
}

// A lost round is abandoned: the reply still outstanding when it was
// decided is folded nowhere.
func TestEventLostRoundFoldsNothingAfterwards(t *testing.T) {
	f, h, c, others := scriptedHarness(t, Options{})
	h.trans.SetDown(others[0], true)
	h.trans.SetDown(others[1], true)
	f.order = []transport.NodeID{others[0], others[1], c.Self()}
	cs, err := c.PutWithPreRead(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("vk", []byte("v"), 1)}, 2, []string{"vk"})
	if !errors.Is(err, ErrQuorumFailed) {
		t.Fatalf("err = %v, want quorum failure", err)
	}
	f.drain()
	if vc := cs.Of("vk"); vc.Complete() || len(vc.Versions()) != 0 {
		t.Fatalf("the abandoned round folded its last reply: complete=%v versions=%v", vc.Complete(), vc.Versions())
	}
	if st := c.Stats(); st.HintsStored != 2 || st.QuorumFails != 1 {
		t.Fatalf("stats = %+v, want the two unreachable replicas hinted and one failed write", st)
	}
}

// applyOrder records, in arrival order, which replicas were handed
// already-timestamped entries (repair and hint pushes), and the entries.
type applyOrder struct {
	mu      sync.Mutex
	ids     []transport.NodeID
	entries [][]model.Entry
}

type applyRecorder struct {
	id    transport.NodeID
	inner transport.Handler
	log   *applyOrder
}

func (r applyRecorder) HandleRequest(from transport.NodeID, req transport.Request) (transport.Response, error) {
	if push, ok := req.(transport.ApplyEntriesReq); ok {
		r.log.mu.Lock()
		r.log.ids = append(r.log.ids, r.id)
		r.log.entries = append(r.log.entries, push.Entries)
		r.log.mu.Unlock()
	}
	return r.inner.HandleRequest(from, req)
}

func (h *harness) recordApplies() *applyOrder {
	log := &applyOrder{}
	for _, n := range h.nodes {
		h.trans.Register(n.ID(), applyRecorder{n.ID(), n, log})
	}
	return log
}

func (o *applyOrder) arrived() []transport.NodeID {
	o.mu.Lock()
	defer o.mu.Unlock()
	return slices.Clone(o.ids)
}

// Repair and hint traffic has a defined order on every fabric: stale
// replicas are repaired, and hinted targets replayed, one after another
// in ascending node order. (They used to follow map iteration order,
// each repair push on a goroutine of its own.)
func TestRepairAndHintPushesArriveInNodeOrder(t *testing.T) {
	forEachFabric(t, func(t *testing.T, tr transport.Transport) {
		for round := 0; round < 8; round++ { // a random order would pass one round in two
			h := newHarness(t, tr, 3, Options{N: 3, RequestTimeout: 100 * time.Millisecond, HintReplayInterval: -1})
			c := h.coords[0]
			row := fmt.Sprintf("r%d", round)
			reps := slices.Clone(c.ReplicasFor("t", row))
			slices.Sort(reps)
			ahead, behind := reps[1], []transport.NodeID{reps[0], reps[2]}
			log := h.recordApplies()

			divergeReplica(t, h, c, ahead, "t", row, "c", "new", 2)
			if _, err := c.Get(ctxT(t), "t", row, []string{"c"}, 3, false); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 2*time.Second, func() bool { return len(log.arrived()) == 2 })
			if got := log.arrived(); !slices.Equal(got, behind) {
				t.Fatalf("round %d: repairs reached replicas %v, want %v", round, got, behind)
			}

			for _, rep := range behind {
				h.trans.SetDown(rep, true)
			}
			if err := c.Put(ctxT(t), "t", row, []model.ColumnUpdate{model.Update("c", []byte("newer"), 3)}, 1); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 2*time.Second, func() bool { return c.PendingHints() == 2 })
			for _, rep := range behind {
				h.trans.SetDown(rep, false)
			}
			c.ReplayHints()
			if got := log.arrived(); !slices.Equal(got[2:], behind) {
				t.Fatalf("round %d: hints reached replicas %v, want %v", round, got[2:], behind)
			}
		}
	})
}

package coord

import (
	"context"
	"errors"
	"fmt"
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
	vc := cs["vk"]
	if vc.Complete() || len(vc.Versions()) != 2 {
		t.Fatalf("at quorum: complete=%v versions=%v, want the two answering replicas' pre-images", vc.Complete(), vc.Versions())
	}
	if got := h.replicasHolding("t", "r", "vk", "final"); got != 2 {
		t.Fatalf("%d replicas hold the write while one is held back, want 2", got)
	}
	open()
	select {
	case <-vc.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("the straggler's reply never completed the collector")
	}
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
	vc := cs["vk"]
	if vc.Complete() || len(vc.Versions()) != 2 {
		t.Fatalf("at quorum: complete=%v versions=%v", vc.Complete(), vc.Versions())
	}
	open()
	select {
	case <-vc.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("the straggler's reply never completed the collector")
	}
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
	if string(row["c"].Value) != "old" {
		t.Fatalf("read %q from the answering replicas, want old", row["c"].Value)
	}
	open()
	waitFor(t, 5*time.Second, func() bool { return h.replicasHolding("t", "r", "c", "new") == 3 })
	if string(row["c"].Value) != "old" {
		t.Fatalf("the caller's row changed under it: %q", row["c"].Value)
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

package coord

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"vstore/internal/model"
	"vstore/internal/race"
	"vstore/internal/ring"
	"vstore/internal/transport"
)

// acker answers every request with an ack and nothing else.
type acker struct{}

func (acker) HandleRequest(transport.NodeID, transport.Request) (transport.Response, error) {
	return transport.AckResp{}, nil
}

// TestWriteRoundAllocatesNothing pins the synchronous write round's
// bookkeeping: once the coordinator has parked helpers, overlapping
// the replica calls needs no goroutine, closure, WaitGroup or results
// slice of its own.
func TestWriteRoundAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	tr := transport.NewDirect()
	ids := []transport.NodeID{0, 1, 2}
	for _, id := range ids {
		tr.Register(id, acker{})
	}
	c := New(0, ring.New(ids, 8), tr, Options{N: 3, HintReplayInterval: -1})
	defer c.Close()
	q := quorum{ids, 2}
	var x exchange = &ack{plain{transport.ApplyEntriesReq{Table: "t"}}}
	ctx := context.Background()
	round := func() {
		if err := c.round(ctx, writeKind, q, true, x); err != nil {
			t.Fatal(err)
		}
	}
	round() // starts the helpers
	if got := testing.AllocsPerRun(100, round); got > 0 {
		t.Errorf("a write round allocates %v times, want 0", got)
	}
}

// putAcker answers every put as a replica does one that asks no
// pre-read: with an empty PutResp.
type putAcker struct{}

func (putAcker) HandleRequest(transport.NodeID, transport.Request) (transport.Response, error) {
	return transport.PutResp{}, nil
}

// TestPutWithoutPreReadAllocatesNoCollector pins a put that asks no
// pre-read — every propagation write is one — at its exchange and its
// boxed request: its collectors are the zero value, and its replies
// carry no pre-images.
func TestPutWithoutPreReadAllocatesNoCollector(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	tr := transport.NewDirect()
	ids := []transport.NodeID{0, 1, 2}
	for _, id := range ids {
		tr.Register(id, putAcker{})
	}
	c := New(0, ring.New(ids, 8), tr, Options{N: 3, HintReplayInterval: -1})
	defer c.Close()
	ctx := context.Background()
	ups := []model.ColumnUpdate{model.Update("c", []byte("v"), 1)}
	cs, err := c.PutWithPreRead(ctx, "t", "r", ups, 2, nil) // also starts the helpers
	if err != nil {
		t.Fatal(err)
	}
	if cs.vcs != nil || cs.Of("c") != nil {
		t.Fatalf("a put with no pre-read has collectors %+v", cs)
	}
	put := func() {
		if err := c.Put(ctx, "t", "r", ups, 2); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, put); got > 2 {
		t.Errorf("a put with no pre-read allocates %v times, want at most 2 (its exchange and boxed request)", got)
	}
}

// TestCloseEndsHelpers is the round helpers' lifecycle: concurrent
// write rounds grow the free list, Close ends every helper — the
// goroutine count is back where it was before the coordinator — and a
// write round issued after Close still completes, on its caller.
func TestCloseEndsHelpers(t *testing.T) {
	base := runtime.NumGoroutine()
	h := newHarness(t, transport.NewDirect(), 3, Options{N: 3, HintReplayInterval: -1})
	c := h.coords[0]
	put := func(row string) error {
		return c.Put(context.Background(), "t", row, []model.ColumnUpdate{model.Update("c", []byte("v"), 1)}, 2)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := put("r"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if runtime.NumGoroutine() <= base {
		t.Fatal("no helper was started")
	}
	for _, c := range h.coords {
		c.Close()
	}
	settled := func() bool { return runtime.NumGoroutine() <= base }
	for deadline := time.Now().Add(5 * time.Second); !settled() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond) // an ended helper is gone a moment after Close returns
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines after Close, want at most %d", got, base)
	}
	if err := put("after-close"); err != nil {
		t.Fatalf("write round after Close: %v", err)
	}
	if got := h.replicasHolding("t", "after-close", "c", "v"); got != 3 {
		t.Fatalf("write after Close reached %d replicas, want 3", got)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("a write round after Close started a goroutine: %d > %d", got, base)
	}
}

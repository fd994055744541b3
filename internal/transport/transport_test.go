package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"vstore/internal/model"
)

// echoHandler replies to GetReq with a fixed row and to everything
// else with AckResp.
type echoHandler struct {
	row []model.Cell
}

func (e *echoHandler) HandleRequest(from NodeID, req Request) (Response, error) {
	switch req.(type) {
	case GetReq:
		return GetResp{Cells: e.row}, nil
	default:
		return AckResp{}, nil
	}
}

func TestDirectRoundTrip(t *testing.T) {
	tr := NewDirect()
	row := []model.Cell{{Value: []byte("v"), TS: 1}}
	tr.Register(1, &echoHandler{row: row})
	res := <-tr.Call(0, 1, GetReq{Table: "t", Row: "r"})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	got, ok := res.Resp.(GetResp)
	if !ok || string(got.Cells[0].Value) != "v" {
		t.Fatalf("bad response %#v", res.Resp)
	}
	if res.From != 1 {
		t.Fatalf("From = %d", res.From)
	}
}

func TestUnregisteredNode(t *testing.T) {
	tr := NewDirect()
	res := <-tr.Call(0, 9, GetReq{})
	if res.Err != ErrUnregistered {
		t.Fatalf("err = %v", res.Err)
	}
}

func TestDownNode(t *testing.T) {
	tr := NewDirect()
	tr.Register(1, &echoHandler{})
	tr.SetDown(1, true)
	if res := <-tr.Call(0, 1, GetReq{}); res.Err != ErrNodeDown {
		t.Fatalf("err = %v", res.Err)
	}
	tr.SetDown(1, false)
	if res := <-tr.Call(0, 1, GetReq{}); res.Err != nil {
		t.Fatalf("recovered node still erroring: %v", res.Err)
	}
}

func TestPartition(t *testing.T) {
	tr := NewDirect()
	tr.Register(1, &echoHandler{})
	tr.Register(2, &echoHandler{})
	tr.Partition(1, 2, true)
	if res := <-tr.Call(1, 2, GetReq{}); res.Err != ErrUnreachable {
		t.Fatalf("1->2 err = %v", res.Err)
	}
	// Partition is symmetric.
	if res := <-tr.Call(2, 1, GetReq{}); res.Err != ErrUnreachable {
		t.Fatalf("2->1 err = %v", res.Err)
	}
	// A node always reaches itself.
	if res := <-tr.Call(1, 1, GetReq{}); res.Err != nil {
		t.Fatalf("self call err = %v", res.Err)
	}
	// Other pairs unaffected.
	if res := <-tr.Call(0, 1, GetReq{}); res.Err != nil {
		t.Fatalf("0->1 err = %v", res.Err)
	}
	tr.Partition(1, 2, false)
	if res := <-tr.Call(1, 2, GetReq{}); res.Err != nil {
		t.Fatalf("healed partition still erroring: %v", res.Err)
	}
}

func TestSimLatency(t *testing.T) {
	tr := NewSim(SimOptions{Latency: 5 * time.Millisecond, Seed: 1})
	tr.Register(1, &echoHandler{})
	start := time.Now()
	res := <-tr.Call(0, 1, GetReq{})
	elapsed := time.Since(start)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// Two one-way hops of 5ms each.
	if elapsed < 9*time.Millisecond {
		t.Fatalf("round trip took %v, want >= ~10ms", elapsed)
	}
}

func TestSimLocalCallSkipsNetwork(t *testing.T) {
	tr := NewSim(SimOptions{Latency: 50 * time.Millisecond, Seed: 1})
	tr.Register(1, &echoHandler{})
	start := time.Now()
	res := <-tr.Call(1, 1, GetReq{})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if time.Since(start) > 20*time.Millisecond {
		t.Fatal("self-call paid network latency")
	}
}

func TestSimDropAll(t *testing.T) {
	tr := NewSim(SimOptions{Latency: time.Millisecond, DropProb: 1.0, DropDelay: 2 * time.Millisecond, Seed: 1})
	tr.Register(1, &echoHandler{})
	if res := <-tr.Call(0, 1, GetReq{}); res.Err != ErrDropped {
		t.Fatalf("err = %v, want ErrDropped", res.Err)
	}
}

func TestSimDropRate(t *testing.T) {
	tr := NewSim(SimOptions{DropProb: 0.5, DropDelay: time.Microsecond, Seed: 42})
	tr.Register(1, &echoHandler{})
	drops := 0
	const n = 400
	for i := 0; i < n; i++ {
		if res := <-tr.Call(0, 1, GetReq{}); res.Err == ErrDropped {
			drops++
		}
	}
	// Each call has two chances to drop (request and reply):
	// expected drop fraction 1-0.25 = 0.75.
	if drops < n/2 || drops > n*95/100 {
		t.Fatalf("dropped %d/%d, want around 75%%", drops, n)
	}
}

func TestSimConcurrentCalls(t *testing.T) {
	tr := NewSim(SimOptions{Latency: time.Millisecond, Jitter: 500 * time.Microsecond, Seed: 1})
	for id := NodeID(0); id < 4; id++ {
		tr.Register(id, &echoHandler{})
	}
	const calls = 100
	chans := make([]<-chan Result, 0, calls)
	for i := 0; i < calls; i++ {
		chans = append(chans, tr.Call(NodeID(i%4), NodeID((i+1)%4), GetReq{}))
	}
	for i, ch := range chans {
		if res := <-ch; res.Err != nil {
			t.Fatalf("call %d: %v", i, res.Err)
		}
	}
}

// countingHandler records how many requests it has served, so tests
// can observe WHEN a handler ran relative to the Call returning.
type countingHandler struct {
	served atomic.Int64
}

func (c *countingHandler) HandleRequest(from NodeID, req Request) (Response, error) {
	c.served.Add(1)
	return AckResp{}, nil
}

// TestDirectCallSyncRunsInline pins the synchronous fast path: CallSync
// runs the handler on the caller's goroutine, with no goroutine,
// channel or timer per message.
func TestDirectCallSyncRunsInline(t *testing.T) {
	tr := NewDirect()
	h := &countingHandler{}
	tr.Register(1, h)
	res := tr.CallSync(0, 1, GetReq{})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if h.served.Load() != 1 {
		t.Fatal("handler did not run during CallSync")
	}
}

// funcHandler adapts a function to the Handler interface.
type funcHandler func(from NodeID, req Request) (Response, error)

func (f funcHandler) HandleRequest(from NodeID, req Request) (Response, error) { return f(from, req) }

// TestDirectCallRunsConcurrently pins the asynchronous contract: Call
// dispatches the handler off the caller's goroutine, so a quorum
// fan-out overlaps its replicas' handler executions instead of
// serializing them (which collapses throughput on contended rows).
func TestDirectCallRunsConcurrently(t *testing.T) {
	tr := NewDirect()
	started := make(chan struct{})
	release := make(chan struct{})
	tr.Register(1, funcHandler(func(from NodeID, req Request) (Response, error) {
		close(started)
		<-release
		return AckResp{}, nil
	}))
	// If Call ran the handler inline it would deadlock here waiting for
	// release, and the test would time out.
	ch := tr.Call(0, 1, GetReq{})
	<-started
	close(release)
	if res := <-ch; res.Err != nil {
		t.Fatal(res.Err)
	}
}

func TestDirectCallSync(t *testing.T) {
	tr := NewDirect()
	row := []model.Cell{{Value: []byte("v"), TS: 1}}
	tr.Register(1, &echoHandler{row: row})
	var sc SyncCaller = tr // Direct must satisfy the fast-path interface
	res := sc.CallSync(0, 1, GetReq{Table: "t", Row: "r"})
	if res.Err != nil || res.From != 1 {
		t.Fatalf("CallSync result %+v", res)
	}
	if got := res.Resp.(GetResp); string(got.Cells[0].Value) != "v" {
		t.Fatalf("bad response %#v", res.Resp)
	}
	tr.SetDown(1, true)
	if res := sc.CallSync(0, 1, GetReq{}); res.Err != ErrNodeDown {
		t.Fatalf("CallSync to down node err = %v", res.Err)
	}
}

package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"vstore/internal/clock"
	"vstore/internal/core"
	"vstore/internal/model"
	"vstore/internal/transport"
)

// heldHarness is a harness whose propagations wait out a PropagationDelay
// held on clk until the test releases it: the first propagation to start
// draws an hour, the next two hours, and so on, so the test can tell them
// apart.
func heldHarness(t *testing.T) (*harness, *holdClock) {
	t.Helper()
	clk := &holdClock{Clock: clock.Wall, only: func(d time.Duration) bool { return d >= time.Hour }}
	var mu sync.Mutex
	next := time.Duration(0)
	h := newHarness(t, core.Options{Clock: clk, PropagationDelay: func() time.Duration {
		mu.Lock()
		defer mu.Unlock()
		next += time.Hour
		return next
	}}, 4)
	mustDefine(t, h, ticketDef())
	return h, clk
}

// eventually waits for a condition that goroutines of the test reach on
// their own.
func eventually(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for limit := time.Now().Add(10 * time.Second); !ok(); time.Sleep(time.Millisecond) {
		if time.Now().After(limit) {
			t.Fatalf("%s never happened", what)
		}
	}
}

// ledgerWaiters counts the goroutines parked in a wait on the ledger.
func ledgerWaiters() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("core.(*ledger).await("))
}

// done is a context that has already ended: a wait on it returns nil only
// if there was nothing to wait for.
func done() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func assign(who string, ts int64) []model.ColumnUpdate {
	return []model.ColumnUpdate{model.Update("assignedto", []byte(who), ts)}
}

// A session that wrote nothing waits for nothing; neither does one whose
// writes failed, since a failed write schedules no propagation.
func TestSessionWaitViewWithoutWrites(t *testing.T) {
	h := newHarness(t, core.Options{}, 4)
	mustDefine(t, h, ticketDef())
	m := h.mgrs[0]
	sess := m.Session()
	if err := sess.WaitView(done(), "assignedto"); err != nil {
		t.Fatalf("a session without writes waited: %v", err)
	}
	if err := m.Put(ctxT(t), "assignedto", "x", assign("rliu", 1), 2, sess); err == nil {
		t.Fatal("a Put into a view was accepted")
	}
	for i := 1; i < h.c.Size(); i++ {
		h.c.SetNodeDown(transport.NodeID(i), true)
	}
	if err := m.Put(ctxT(t), "ticket", "1", assign("rliu", 1), 3, sess); err == nil {
		t.Fatal("a Put without its write quorum was acknowledged")
	}
	for i := 1; i < h.c.Size(); i++ {
		h.c.SetNodeDown(transport.NodeID(i), false)
	}
	if err := sess.WaitView(done(), "assignedto"); err != nil {
		t.Fatalf("a session whose writes failed waited: %v", err)
	}
}

// A session read parks until the session's propagation into the view has
// ended, and then sees the write.
func TestSessionWaitViewWaitsForItsPropagation(t *testing.T) {
	h, clk := heldHarness(t)
	m := h.mgrs[0]
	sess := m.Session()
	if err := m.Put(ctxT(t), "ticket", "1", assign("rliu", 1), 2, sess); err != nil {
		t.Fatal(err)
	}
	returned := make(chan error, 1)
	go func() { returned <- sess.WaitView(ctxT(t), "assignedto") }()
	eventually(t, "a parked session read", func() bool { return clk.holds(time.Hour) && ledgerWaiters() == 1 })
	select {
	case err := <-returned:
		t.Fatalf("the session read returned (%v) while its propagation was held", err)
	default:
	}
	clk.release()
	select {
	case err := <-returned:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the session read never returned once its propagation ended")
	}
	if rows := getView(t, m, "assignedto", "rliu"); len(rows) != 1 || rows[0].BaseKey != "1" {
		t.Fatalf("view under rliu after the session read = %v", rows)
	}
}

// An abandoned propagation ends the wait too: the session is not blocked
// forever by a view it cannot reach.
func TestSessionWaitViewOutlastsAbandonment(t *testing.T) {
	clk := &holdClock{Clock: clock.Wall, only: func(d time.Duration) bool { return d == time.Hour }}
	h := newHarness(t, core.Options{Clock: clk, MaxPropagationRetry: time.Hour, RetryBackoff: time.Millisecond}, 4)
	mustDefine(t, h, ticketDef())
	m := h.mgrs[0]
	for i := 1; i < h.c.Size(); i++ {
		h.c.SetNodeDown(transport.NodeID(i), true)
	}
	sess := m.Session()
	if err := m.Put(ctxT(t), "ticket", "1", assign("rliu", 1), 1, sess); err != nil {
		t.Fatal(err)
	}
	returned := make(chan error, 1)
	go func() { returned <- sess.WaitView(ctxT(t), "assignedto") }()
	eventually(t, "a failing propagation and a parked session read", func() bool {
		return clk.holds(time.Hour) && m.Stats().FailedAttempts.Load() > 0 && ledgerWaiters() == 1
	})
	clk.release() // the abandon deadline
	select {
	case err := <-returned:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the session read outlived the abandoned propagation")
	}
	if n := m.Stats().Abandoned.Load(); n != 1 {
		t.Fatalf("abandoned = %d, want 1", n)
	}
}

// A session read waits only for the session's propagations into the view
// it reads.
func TestSessionWaitViewScopedToItsView(t *testing.T) {
	h, clk := heldHarness(t)
	if err := h.reg.Define(core.Def{Name: "bystatus", Base: "ticket", ViewKeyColumn: "status"}); err != nil {
		t.Fatal(err)
	}
	m := h.mgrs[0]
	sess := m.Session()
	if err := m.Put(ctxT(t), "ticket", "1", assign("rliu", 1), 2, sess); err != nil {
		t.Fatal(err)
	}
	if err := sess.WaitView(done(), "bystatus"); err != nil {
		t.Fatalf("a read of a view the session did not write waited: %v", err)
	}
	if err := m.Session().WaitView(done(), "assignedto"); err != nil {
		t.Fatalf("another session's read waited on this one's write: %v", err)
	}
	if err := sess.WaitView(done(), "assignedto"); !errors.Is(err, context.Canceled) {
		t.Fatalf("a read of the written view on a done context = %v, want it to have waited", err)
	}
	clk.release()
}

// Definition 4 covers the operations before the read: a write the session
// issues while its read waits does not hold the read back.
func TestSessionWaitViewCoversOnlyEarlierPuts(t *testing.T) {
	h, clk := heldHarness(t)
	m := h.mgrs[0]
	sess := m.Session()
	if err := m.Put(ctxT(t), "ticket", "1", assign("rliu", 1), 2, sess); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the first propagation's delay", func() bool { return clk.holds(time.Hour) })
	returned := make(chan error, 1)
	go func() { returned <- sess.WaitView(ctxT(t), "assignedto") }()
	eventually(t, "a parked session read", func() bool { return ledgerWaiters() == 1 })
	if err := m.Put(ctxT(t), "ticket", "2", assign("cjin", 2), 2, sess); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the second propagation's delay", func() bool { return clk.holds(2 * time.Hour) })
	clk.releaseIf(func(d time.Duration) bool { return d == time.Hour })
	select {
	case err := <-returned:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a write issued after the read began held the read back")
	}
	if n := m.PendingPropagations(); n != 1 {
		t.Fatalf("%d propagations pending, want the later write's", n)
	}
	clk.release()
}

// A session read and Quiesce both give up when their context ends.
func TestLedgerWaitsEndWithTheirContext(t *testing.T) {
	h, clk := heldHarness(t)
	m := h.mgrs[0]
	sess := m.Session()
	if err := m.Put(ctxT(t), "ticket", "1", assign("rliu", 1), 2, sess); err != nil {
		t.Fatal(err)
	}
	for name, wait := range map[string]func(context.Context) error{
		"session read": func(ctx context.Context) error { return sess.WaitView(ctx, "assignedto") },
		"Quiesce":      m.Quiesce,
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		err := wait(ctx)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s with a held propagation = %v, want its context's deadline", name, err)
		}
	}
	if n := ledgerWaiters(); n != 0 {
		t.Fatalf("%d waits still parked on the ledger after their contexts ended", n)
	}
	clk.release()
	if err := m.Quiesce(ctxT(t)); err != nil {
		t.Fatal(err)
	}
}

// An ended session's reads wait for nothing.
func TestSessionEnded(t *testing.T) {
	h, clk := heldHarness(t)
	m := h.mgrs[0]
	sess := m.Session()
	if err := m.Put(ctxT(t), "ticket", "1", assign("rliu", 1), 2, sess); err != nil {
		t.Fatal(err)
	}
	sess.End()
	sess.End()
	if err := sess.WaitView(done(), "assignedto"); err != nil {
		t.Fatalf("an ended session's read waited: %v", err)
	}
	clk.release()
}

// Concurrent sessions on every coordinator each read their own writes.
func TestConcurrentSessionsReadTheirWrites(t *testing.T) {
	h := newHarness(t, core.Options{}, 4)
	mustDefine(t, h, ticketDef())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := h.mgrs[i%len(h.mgrs)]
			sess := m.Session()
			defer sess.End()
			row := fmt.Sprintf("s%d", i)
			for j := 0; j < 20; j++ {
				who := fmt.Sprintf("u%d-%d", i, j)
				if err := m.Put(ctxT(t), "ticket", row, assign(who, int64(j+1)), 2, sess); err != nil {
					t.Error(err)
					return
				}
				if err := sess.WaitView(ctxT(t), "assignedto"); err != nil {
					t.Error(err)
					return
				}
				rows, err := m.GetView(ctxT(t), "assignedto", who, nil)
				if err != nil || len(rows) != 1 || rows[0].BaseKey != row {
					t.Errorf("session %d write %d: view under %s = %v, %v", i, j, who, rows, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

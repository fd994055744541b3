package core_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vstore/internal/clock"
	"vstore/internal/core"
	"vstore/internal/model"
	"vstore/internal/transport"
	"vstore/internal/wal"
)

// recordingLog is an IntentLog that remembers what was logged and fails
// the test when anything is logged after the test declared it shut.
type recordingLog struct {
	t    *testing.T
	shut atomic.Bool
	mu   sync.Mutex
	next uint64
	open map[uint64]bool // started and not done
	done int
}

func (l *recordingLog) NextIntentID() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

func (l *recordingLog) LogIntentStart(it wal.Intent) error {
	if l.shut.Load() {
		l.t.Errorf("intent %d started after the log was shut", it.ID)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.open == nil {
		l.open = map[uint64]bool{}
	}
	l.open[it.ID] = true
	return nil
}

func (l *recordingLog) LogIntentDone(id uint64) error {
	if l.shut.Load() {
		l.t.Errorf("intent %d marked done after the log was shut", id)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.open, id)
	l.done++
	return nil
}

func (l *recordingLog) counts() (open, done int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.open), l.done
}

var assignRliu = []model.ColumnUpdate{model.Update("assignedto", []byte("rliu"), 1)}

// Close ends a held-back propagation and has returned only after it did:
// nothing touches the intent log afterwards (DB.Close closes the node's
// logs next), a session read of the write no longer waits, the
// propagation counts neither as delivered nor as abandoned, and the
// intent is left pending — the view does not hold the write.
func TestCloseEndsHeldPropagationBeforeReturning(t *testing.T) {
	clk := &holdClock{Clock: clock.Wall, only: func(d time.Duration) bool { return d == time.Hour }}
	h := newHarness(t, core.Options{Clock: clk, PropagationDelay: func() time.Duration { return time.Hour }}, 4)
	mustDefine(t, h, ticketDef())
	log := &recordingLog{t: t}
	mgr := h.mgrs[0]
	mgr.SetIntentLog(log)
	sess := mgr.Session()
	if err := mgr.Put(ctxT(t), "ticket", "1", assignRliu, 2, sess); err != nil {
		t.Fatal(err)
	}
	for !clk.holds(time.Hour) {
		time.Sleep(time.Millisecond)
	}
	mgr.Close()
	log.shut.Store(true)
	ended, cancel := context.WithCancel(ctxT(t))
	cancel()
	if err := sess.WaitView(ended, "assignedto"); err != nil {
		t.Fatalf("a session read after Close: %v, want the held propagation ended before Close returns", err)
	}
	if open, done := log.counts(); open != 1 || done != 0 {
		t.Fatalf("%d intents pending, %d marked done; want the cancelled propagation's intent left pending", open, done)
	}
	if st := mgr.Stats(); mgr.PendingPropagations() != 0 || st.Abandoned.Load() != 0 || st.Propagations.Load() != 0 {
		t.Fatalf("pending = %d, abandoned = %d, delivered = %d after Close", mgr.PendingPropagations(), st.Abandoned.Load(), st.Propagations.Load())
	}
	if err := mgr.Put(ctxT(t), "ticket", "2", assignRliu, 2, nil); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("Put on a closed manager: %v, want ErrClosed", err)
	}
	clk.release() // the stale delay timer wakes nobody
	time.Sleep(20 * time.Millisecond)
}

// Close waits out a propagation whose round is in flight — the
// interrupt cannot cut a replica call short — and has returned only once
// that propagation ended.
func TestCloseWaitsOutARoundInFlight(t *testing.T) {
	fab := newHeldWrite("assignedto", "")
	h := newHarnessOn(t, core.Options{}, 4, fab)
	mustDefine(t, h, ticketDef())
	mgr := h.mgrs[0]
	sess := mgr.Session()
	release := sync.OnceFunc(func() { close(fab.release) })
	t.Cleanup(release) // before the harness closes, should the test fail
	fab.armed.Store(true)
	if err := mgr.Put(ctxT(t), "ticket", "1", assignRliu, 2, sess); err != nil {
		t.Fatal(err)
	}
	<-fab.sent // the propagation's first view write
	closed := make(chan struct{})
	go func() {
		mgr.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with a propagation's round in flight")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned once the round came back")
	}
	if err := sess.WaitView(done(), "assignedto"); err != nil || mgr.PendingPropagations() != 0 {
		t.Fatalf("after Close: session read %v, %d propagations pending; want the propagation ended", err, mgr.PendingPropagations())
	}
}

// gatedLog is a recordingLog whose done records wait for the test.
type gatedLog struct {
	recordingLog
	entered, release chan struct{}
}

func (l *gatedLog) LogIntentDone(id uint64) error {
	l.entered <- struct{}{}
	<-l.release
	return l.recordingLog.LogIntentDone(id)
}

// A propagation leaves the ledger last: Quiesce — like Close and a
// session read — returns only once all its ending does is done, the
// intent's done record included.
func TestQuiesceWaitsForTheDoneRecord(t *testing.T) {
	h := newHarness(t, core.Options{}, 4)
	mustDefine(t, h, ticketDef())
	log := &gatedLog{recordingLog: recordingLog{t: t}, entered: make(chan struct{}), release: make(chan struct{})}
	release := sync.OnceFunc(func() { close(log.release) })
	t.Cleanup(release) // before the harness closes, should the test fail
	mgr := h.mgrs[0]
	mgr.SetIntentLog(log)
	if err := mgr.Put(ctxT(t), "ticket", "1", assignRliu, 2, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-log.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the propagation never wrote its intent's done record")
	}
	quiesced := make(chan error, 1)
	go func() { quiesced <- mgr.Quiesce(ctxT(t)) }()
	select {
	case err := <-quiesced:
		t.Fatalf("Quiesce returned (%v) while the propagation's done record was being written", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-quiesced; err != nil {
		t.Fatal(err)
	}
	if open, done := log.counts(); open != 0 || done != 1 {
		t.Fatalf("%d intents pending, %d done after Quiesce; want the one done", open, done)
	}
}

// viewDown is a fabric on which, while down is set, every read and
// write of one table fails.
type viewDown struct {
	transport.Transport
	table string
	down  atomic.Bool
}

func (f *viewDown) Call(from, to transport.NodeID, req transport.Request) <-chan transport.Result {
	table := ""
	switch r := req.(type) {
	case transport.GetReq:
		table = r.Table
	case transport.GetDigestReq:
		table = r.Table
	case transport.MultiGetReq:
		table = r.Table
	case transport.PutReq:
		table = r.Table
	}
	if table != f.table || !f.down.Load() {
		return f.Transport.Call(from, to, req)
	}
	failed := make(chan transport.Result, 1)
	failed <- transport.Result{From: to, Err: transport.ErrNodeDown}
	return failed
}

// A fill reports its propagation's outcome: with the view unreachable
// it keeps retrying until its filler gives up, and BackfillRow then
// returns an error, which is what makes the controller re-issue it.
func TestBackfillRowReportsAFailedFill(t *testing.T) {
	fab := &viewDown{Transport: transport.NewDirect(), table: "assignedto"}
	h := newHarnessOn(t, core.Options{RetryBackoff: time.Millisecond}, 4, fab)
	mustDefine(t, h, ticketDef())
	mgr := h.mgrs[0]
	if err := mgr.Put(ctxT(t), "ticket", "1", assignRliu, 2, nil); err != nil {
		t.Fatal(err)
	}
	h.quiesce(t)
	fab.down.Store(true)
	ctx, cancel := context.WithTimeout(ctxT(t), 50*time.Millisecond)
	defer cancel()
	if err := mgr.BackfillRow(ctx, "assignedto", "ticket", "1"); err == nil {
		t.Fatal("a fill that never reached the view reported success")
	}
	fab.down.Store(false)
	if err := mgr.BackfillRow(ctxT(t), "assignedto", "ticket", "1"); err != nil {
		t.Fatalf("the re-issued fill: %v", err)
	}
}

// The last done record and Close, racing (ROADMAP: afterAll's goroutine
// against wal.Storage.closeLogs): whatever the interleaving, a
// propagation finishing as the manager closes has logged what it logs by
// the time Close returns.
func TestCloseRacesLastDoneRecord(t *testing.T) {
	for i := 0; i < 50; i++ {
		h := newHarness(t, core.Options{}, 4)
		mustDefine(t, h, ticketDef())
		log := &recordingLog{t: t}
		mgr := h.mgrs[0]
		mgr.SetIntentLog(log)
		if err := mgr.Put(ctxT(t), "ticket", "1", assignRliu, 2, nil); err != nil {
			t.Fatal(err)
		}
		mgr.Close()
		log.shut.Store(true)
		if open, done := log.counts(); open+done != 1 {
			t.Fatalf("run %d: %d pending + %d done intents, want the one", i, open, done)
		}
		h.reg.Close()
		h.c.Close()
	}
}

// A propagation into a dropped view ends at its next attempt — not
// delivered, not counted as abandoned — instead of retrying for
// MaxPropagationRetry against tables that are gone; and when a view of
// the same name is re-created meanwhile, the old generation's
// propagation writes nothing into it.
func TestPropagationIntoDroppedViewEnds(t *testing.T) {
	backoff := func(d time.Duration) bool { return d <= 50*time.Millisecond }
	clk := &holdClock{Clock: clock.Wall, only: backoff}
	h := newHarness(t, core.Options{Clock: clk}, 4)
	mustDefine(t, h, ticketDef())
	// No view quorum while the propagation makes its first attempts.
	for i := 1; i < h.c.Size(); i++ {
		h.c.SetNodeDown(transport.NodeID(i), true)
	}
	ended := putEnded(t, h.mgrs[0], "assignedto", "1", assignRliu, 1)
	for h.mgrs[0].Stats().FailedAttempts.Load() == 0 || !clk.holds(time.Millisecond) {
		time.Sleep(time.Millisecond) // mid-retry: a failed attempt, then the held back-off
	}
	if err := h.reg.Drop("assignedto"); err != nil {
		t.Fatal(err)
	}
	if err := h.reg.Define(ticketDef()); err != nil { // a new generation, same name
		t.Fatal(err)
	}
	for i := 1; i < h.c.Size(); i++ {
		h.c.SetNodeDown(transport.NodeID(i), false)
	}
	clk.release()
	select {
	case <-ended:
		if n := h.mgrs[0].Stats().Propagations.Load(); n != 0 {
			t.Fatalf("%d propagations delivered, want the one into the dropped view ended undelivered", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("propagation into the dropped view did not end at its next attempt")
	}
	h.quiesce(t)
	if n := h.mgrs[0].Stats().Abandoned.Load(); n != 0 {
		t.Fatalf("abandoned = %d, want the drop not counted as an abandonment", n)
	}
	if entries := h.viewEntries("assignedto"); len(entries) != 0 {
		t.Fatalf("the re-created view holds %d cells of the dropped generation's propagation", len(entries))
	}
}

// repliesLost is a fabric that delivers base-table writes and loses
// their replies while lose is set.
type repliesLost struct {
	transport.Transport
	lose atomic.Bool
}

func (f *repliesLost) Call(from, to transport.NodeID, req transport.Request) <-chan transport.Result {
	ch := f.Transport.Call(from, to, req)
	if put, ok := req.(transport.PutReq); !ok || put.Table != "ticket" || !f.lose.Load() {
		return ch
	}
	<-ch // applied
	lost := make(chan transport.Result, 1)
	lost <- transport.Result{From: to, Err: transport.ErrDropped}
	return lost
}

// A client re-issues a Put whose first attempt landed on every replica
// but whose replies were all lost. The retry's pre-read then returns
// only the write itself — the pre-images it overwrote are gone — and a
// pool holding nothing but the new key names a view row nobody created.
// The propagation must still converge (it walks from the chain anchor);
// it used to retry that one guess until it was abandoned.
func TestReissuedPutAfterLostRepliesStillPropagates(t *testing.T) {
	fab := &repliesLost{Transport: transport.NewSim(transport.SimOptions{})}
	h := newHarnessOn(t, core.Options{MaxPropagationRetry: 500 * time.Millisecond}, 4, fab)
	mustDefine(t, h, ticketDef())
	mgr := h.mgrs[0]
	if err := mgr.Put(ctxT(t), "ticket", "1", assignRliu, 2, nil); err != nil {
		t.Fatal(err)
	}
	h.quiesce(t)

	reassign := []model.ColumnUpdate{model.Update("assignedto", []byte("kmsalem"), 2)}
	fab.lose.Store(true)
	if err := mgr.Put(ctxT(t), "ticket", "1", reassign, 2, nil); err == nil {
		t.Fatal("the Put whose replies were all lost was acknowledged")
	}
	fab.lose.Store(false)
	before := mgr.Stats().Propagations.Load()
	ended := putEnded(t, mgr, "assignedto", "1", reassign, 2)
	select {
	case <-ended:
		if mgr.Stats().Propagations.Load() == before {
			t.Fatal("the re-issued Put's propagation ended undelivered")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the re-issued Put's propagation never ended")
	}
	h.quiesce(t)
	if n := mgr.Stats().Abandoned.Load(); n != 0 {
		t.Fatalf("abandoned = %d", n)
	}
	if rows := getView(t, mgr, "assignedto", "kmsalem"); len(rows) != 1 || rows[0].BaseKey != "1" {
		t.Fatalf("view under the new key: %+v", rows)
	}
	if rows := getView(t, mgr, "assignedto", "rliu"); len(rows) != 0 {
		t.Fatalf("view under the old key still shows %+v", rows)
	}
}

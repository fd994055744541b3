package backfill_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"vstore/internal/backfill"
	"vstore/internal/clock"
	physmem "vstore/internal/physical/mem"
	"vstore/internal/sim"
	"vstore/internal/wait"
)

// bed is what a controller runs on in these tests: its host, the clock
// of its timers, and do, which runs f as work of the host and returns
// once f has returned (goroutines) or once every process f set going has
// ended or parked for good (the simulator).
type bed struct {
	backfill.Host
	clk clock.Clock
	do  func(f func())
}

// forEachBed runs f on goroutines and the wall clock (its timers a
// hundred times faster), and on the simulator's scheduler: one thread of
// control in virtual time, where a goroutine of the controller's own
// would run unscheduled and a wait on a channel or a clock call other
// than AfterFunc would hang or panic the run.
func forEachBed(t *testing.T, f func(t *testing.T, b *bed)) {
	t.Run("goroutines", func(t *testing.T) {
		f(t, &bed{Host: goHost{}, clk: quick{clock.Wall}, do: func(fn func()) {
			done := make(chan struct{})
			go func() { defer close(done); fn() }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("controller work still running after 10s")
			}
		}})
	})
	t.Run("one-thread", func(t *testing.T) {
		s := sim.NewScheduler(1, 1)
		f(t, &bed{Host: simHost{s}, clk: virtual{s: s}, do: func(fn func()) {
			s.Go(0, "test", fn)
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
		}})
	})
}

// goHost runs work on goroutines and parks on channels.
type goHost struct{}

func (goHost) Go(f func()) bool           { go f(); return true }
func (goHost) Park(arm func(wake func())) { wait.OnChannel(arm) }

// simHost runs work as processes of the simulator's scheduler.
type simHost struct{ s *sim.Scheduler }

func (h simHost) Go(f func()) bool           { h.s.Go(0, "backfill", f); return true }
func (h simHost) Park(arm func(wake func())) { h.s.Await(arm) }

// quick is a clock whose timers fire a hundred times sooner.
type quick struct{ clock.Clock }

func (q quick) AfterFunc(d time.Duration, f func()) func() bool { return q.Clock.AfterFunc(d/100, f) }

// virtual is the scheduler's clock; the controller only arms timers, so
// every other method is left to the nil Clock (a panic if called).
type virtual struct {
	clock.Clock
	s *sim.Scheduler
}

func (v virtual) AfterFunc(d time.Duration, f func()) func() bool {
	return v.s.Schedule(d, "timer", "", f)
}

// sleep parks the caller for d of the bed's clock.
func (b *bed) sleep(d time.Duration) {
	b.Park(func(wake func()) { b.clk.AfterFunc(d, wake) })
}

// stall is a fill that never goes through: it parks until ctx ends.
func (b *bed) stall(ctx context.Context) error {
	for ctx.Err() == nil {
		b.sleep(time.Millisecond)
	}
	return ctx.Err()
}

// waitLive waits (on a user goroutine) for the view to go live.
func waitLive(t *testing.T, c *backfill.Controller, view string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Wait(ctx, view); err != nil {
		t.Fatal(err)
	}
}

// fakePart builds a Partition over a fixed sorted row list. The scan
// contract matches lsm.ScanRows: strictly-after cursor, stable total
// order, at most limit rows.
func fakePart(base string, node int, rows []string) backfill.Partition {
	sorted := append([]string(nil), rows...)
	sort.Strings(sorted)
	return backfill.Partition{Base: base, Node: node, Scan: func(after string, limit int) []string {
		out := []string{}
		for _, r := range sorted {
			if (after == "" || r > after) && len(out) < limit {
				out = append(out, r)
			}
		}
		return out
	}}
}

// recordingFiller counts fills per key and fails keys in fail until
// their failure budget is spent. Every fill takes a millisecond of the
// bed's clock, so fills overlap.
type recordingFiller struct {
	b     *bed
	mu    sync.Mutex
	fills map[string]int
	fail  map[string]int
}

func newRecordingFiller(b *bed) *recordingFiller {
	return &recordingFiller{b: b, fills: map[string]int{}, fail: map[string]int{}}
}

func (f *recordingFiller) fn(ctx context.Context, base, row string) error {
	f.b.sleep(time.Millisecond)
	f.mu.Lock()
	defer f.mu.Unlock()
	k := base + "/" + row
	if f.fail[k] > 0 {
		f.fail[k]--
		return fmt.Errorf("injected fill failure for %s", k)
	}
	f.fills[k]++
	return nil
}

func (f *recordingFiller) count(base, row string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fills[base+"/"+row]
}

func (f *recordingFiller) total() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, c := range f.fills {
		n += c
	}
	return n
}

func keys(n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, fmt.Sprintf("k%04d", i))
	}
	return out
}

// checkedStore is the checkpoint store of a one-partition scan over rows
// that fails the test when a saved mark covers a row the filler has not
// filled: a checkpoint must never get ahead of its page's fills.
type checkedStore struct {
	backfill.Store
	t    *testing.T
	fill *recordingFiller
	rows []string
}

func (s checkedStore) Save(cp backfill.Checkpoint) error {
	for _, m := range cp.Marks {
		for _, r := range s.rows {
			if (m.Done || r <= m.Cursor) && s.fill.count(m.Base, r) == 0 {
				s.t.Errorf("checkpoint %+v covers row %s before its fill", m, r)
			}
		}
	}
	return s.Store.Save(cp)
}

func TestBackfillFillsEveryKeyOnce(t *testing.T) {
	forEachBed(t, func(t *testing.T, b *bed) {
		rows := keys(100)
		// Three overlapping partitions, like three replicas of one table.
		parts := []backfill.Partition{
			fakePart("base", 0, rows[:70]),
			fakePart("base", 1, rows[20:]),
			fakePart("base", 2, rows),
		}
		fill := newRecordingFiller(b)
		var liveMu sync.Mutex
		lives, filledAtLive := []string{}, 0
		c := backfill.New(b, backfill.Options{
			Clock: b.clk, BatchSize: 16,
			OnLive: func(v string) {
				liveMu.Lock()
				lives = append(lives, v)
				filledAtLive = fill.total()
				liveMu.Unlock()
			},
		})
		defer b.do(c.Close)
		b.do(func() {
			if err := c.Start("v", 42, parts, fill.fn); err != nil {
				t.Error(err)
			}
		})
		waitLive(t, c, "v")
		for _, r := range rows {
			if got := fill.count("base", r); got != 1 {
				t.Fatalf("row %s filled %d times, want exactly 1 (claim dedupe)", r, got)
			}
		}
		if st, ok := c.State("v"); !ok || st != backfill.StateLive {
			t.Fatalf("state = %v,%v, want live", st, ok)
		}
		liveMu.Lock()
		defer liveMu.Unlock()
		if len(lives) != 1 || lives[0] != "v" {
			t.Fatalf("OnLive calls = %v, want [v]", lives)
		}
		if filledAtLive != len(rows) {
			t.Fatalf("OnLive fired with %d of %d rows filled", filledAtLive, len(rows))
		}
		if p := c.Progress()["v"]; p.Scanned != 100 {
			t.Fatalf("scanned = %d, want 100", p.Scanned)
		}
	})
}

// A fill that fails is issued again after a back-off, and the view goes
// live; its page is not checkpointed before it went through.
func TestBackfillRetriesFailedFill(t *testing.T) {
	forEachBed(t, func(t *testing.T, b *bed) {
		fill := newRecordingFiller(b)
		fill.fail["base/k0003"] = 2
		store := checkedStore{Store: backfill.NewMemStore(), t: t, fill: fill, rows: keys(10)}
		c := backfill.New(b, backfill.Options{Clock: b.clk, BatchSize: 4, Store: store})
		defer b.do(c.Close)
		b.do(func() {
			if err := c.Start("v", 0, []backfill.Partition{fakePart("base", 0, keys(10))}, fill.fn); err != nil {
				t.Error(err)
			}
		})
		waitLive(t, c, "v")
		if got := fill.count("base", "k0003"); got != 1 {
			t.Fatalf("the failing row was filled %d times, want 1", got)
		}
	})
}

// A fill that keeps failing past the retry budget fails the run, and
// Wait reports it.
func TestBackfillFailureSurfacesInWait(t *testing.T) {
	forEachBed(t, func(t *testing.T, b *bed) {
		const failures = 1 << 20
		fill := newRecordingFiller(b)
		fill.fail["base/k0003"] = failures
		c := backfill.New(b, backfill.Options{Clock: b.clk, BatchSize: 4})
		defer b.do(c.Close)
		b.do(func() {
			if err := c.Start("v", 0, []backfill.Partition{fakePart("base", 0, keys(10))}, fill.fn); err != nil {
				t.Error(err)
			}
		})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := c.Wait(ctx, "v")
		if err == nil || !strings.Contains(err.Error(), "injected fill failure") {
			t.Fatalf("Wait = %v, want the injected fill error", err)
		}
		if st, _ := c.State("v"); st != backfill.StateBackfilling {
			t.Fatalf("state after failure = %v, want still backfilling", st)
		}
		fill.mu.Lock()
		defer fill.mu.Unlock()
		if tries := failures - fill.fail["base/k0003"]; tries < 2 {
			t.Fatalf("the failing fill was issued %d times; it was never retried", tries)
		}
	})
}

func TestCheckpointSkipsDonePartitions(t *testing.T) {
	forEachBed(t, func(t *testing.T, b *bed) {
		store := backfill.NewMemStore()
		if err := store.Save(backfill.Checkpoint{View: "v", SnapshotTS: 7, Marks: []backfill.PartitionMark{
			{Base: "base", Node: 0, Done: true},
			{Base: "base", Node: 1, Cursor: "k0004"},
		}}); err != nil {
			t.Fatal(err)
		}
		fill := newRecordingFiller(b)
		scanned0 := false
		p0 := fakePart("base", 0, keys(10))
		inner0 := p0.Scan
		p0.Scan = func(after string, limit int) []string { scanned0 = true; return inner0(after, limit) }
		c := backfill.New(b, backfill.Options{Clock: b.clk, Store: store})
		defer b.do(c.Close)
		b.do(func() {
			if err := c.Start("v", 99, []backfill.Partition{p0, fakePart("base", 1, keys(10))}, fill.fn); err != nil {
				t.Error(err)
			}
		})
		waitLive(t, c, "v")
		if scanned0 {
			t.Fatal("partition 0 was scanned despite a Done checkpoint mark")
		}
		// Partition 1 resumes after its cursor: k0005..k0009 only.
		for i := 0; i < 5; i++ {
			if got := fill.count("base", fmt.Sprintf("k%04d", i)); got != 0 {
				t.Fatalf("row k%04d before the cursor was refilled (%d)", i, got)
			}
		}
		for i := 5; i < 10; i++ {
			if got := fill.count("base", fmt.Sprintf("k%04d", i)); got != 1 {
				t.Fatalf("row k%04d after the cursor filled %d times, want 1", i, got)
			}
		}
		if p := c.Progress()["v"]; !p.Resumed {
			t.Fatal("Progress.Resumed = false after a checkpoint resume")
		}
		if _, ok, _ := store.Load("v"); ok {
			t.Fatal("checkpoint not cleared after the view went live")
		}
	})
}

func TestDropCancelsRunningBackfill(t *testing.T) {
	forEachBed(t, func(t *testing.T, b *bed) {
		var started wait.Gate
		fill := func(ctx context.Context, base, row string) error {
			started.Open()
			return b.stall(ctx)
		}
		c := backfill.New(b, backfill.Options{Clock: b.clk})
		defer b.do(c.Close)
		dropped := false
		b.do(func() {
			if err := c.Start("v", 0, []backfill.Partition{fakePart("base", 0, keys(8))}, fill); err != nil {
				t.Error(err)
				return
			}
			started.Wait(b.Park)
			c.Drop("v")
			dropped = true
		})
		if !dropped {
			t.Fatal("Drop did not cancel the running backfill")
		}
		if _, ok := c.State("v"); ok {
			t.Fatal("dropped view still tracked")
		}
	})
}

func TestStartWhileBackfillingRejected(t *testing.T) {
	forEachBed(t, func(t *testing.T, b *bed) {
		fill := func(ctx context.Context, base, row string) error { return b.stall(ctx) }
		c := backfill.New(b, backfill.Options{Clock: b.clk})
		b.do(func() {
			if err := c.Start("v", 0, []backfill.Partition{fakePart("base", 0, keys(4))}, fill); err != nil {
				t.Error(err)
			}
			if err := c.Start("v", 0, []backfill.Partition{fakePart("base", 0, keys(4))}, fill); err == nil {
				t.Error("second Start of a backfilling view succeeded")
			}
			c.Close()
		})
	})
}

func TestTrackReportsLive(t *testing.T) {
	forEachBed(t, func(t *testing.T, b *bed) {
		c := backfill.New(b, backfill.Options{Clock: b.clk})
		defer b.do(c.Close)
		c.Track("v")
		if st, ok := c.State("v"); !ok || st != backfill.StateLive {
			t.Fatalf("tracked view state = %v,%v", st, ok)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := c.Wait(ctx, "v"); err != nil {
			t.Fatalf("Wait on a tracked-live view: %v", err)
		}
		if err := c.Wait(ctx, "ghost"); err == nil {
			t.Fatal("Wait on an unknown view succeeded")
		}
	})
}

func TestPhysicalStoreRoundTrip(t *testing.T) {
	b := physmem.New()
	s := backfill.NewPhysicalStore(b)
	cp := backfill.Checkpoint{View: "orders/by-user", SnapshotTS: 123, Marks: []backfill.PartitionMark{
		{Base: "orders", Node: 0, Cursor: "k42"},
		{Base: "orders", Node: 1, Done: true},
	}}
	if err := s.Save(cp); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Load("orders/by-user")
	if err != nil || !ok {
		t.Fatalf("Load = %v, %v", ok, err)
	}
	if got.SnapshotTS != 123 || len(got.Marks) != 2 || got.Marks[0].Cursor != "k42" || !got.Marks[1].Done {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if err := s.Clear("orders/by-user"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Load("orders/by-user"); ok {
		t.Fatal("checkpoint survives Clear")
	}
	// Clearing a missing checkpoint is not an error.
	if err := s.Clear("never-existed"); err != nil {
		t.Fatal(err)
	}
	// A corrupt checkpoint reads as absent (rescan is always safe).
	if err := b.WriteFileAtomic(fmt.Sprintf("backfill/%x.json", "bb"), []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Load("bb"); ok || err != nil {
		t.Fatalf("corrupt checkpoint Load = %v, %v; want absent, nil", ok, err)
	}
}

func TestControllerClosedRejectsStart(t *testing.T) {
	forEachBed(t, func(t *testing.T, b *bed) {
		c := backfill.New(b, backfill.Options{Clock: b.clk})
		b.do(c.Close)
		err := c.Start("v", 0, []backfill.Partition{fakePart("base", 0, keys(2))}, func(context.Context, string, string) error { return nil })
		if err == nil {
			t.Fatal("Start after Close succeeded")
		}
	})
}

func TestWaitContextExpiry(t *testing.T) {
	forEachBed(t, func(t *testing.T, b *bed) {
		fill := func(ctx context.Context, base, row string) error { return b.stall(ctx) }
		c := backfill.New(b, backfill.Options{Clock: b.clk})
		var err error
		b.do(func() {
			if err := c.Start("v", 0, []backfill.Partition{fakePart("base", 0, keys(4))}, fill); err != nil {
				t.Error(err)
			}
			b.sleep(10 * time.Millisecond)
			// Wait on the host's own thread: on the simulator, nothing else
			// runs until it returns.
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			err = c.Wait(ctx, "v")
			c.Close()
		})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Wait = %v, want deadline exceeded", err)
		}
	})
}

package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vstore/internal/wait"
)

// The ledger grants a row to its propagations' rounds (ledger.serialize,
// the face of Port.Serialize): these tests hold that grant to Section
// IV-F's shared/exclusive lock and to its fairness rule (wait.Turns).

// grantLedger returns a ledger in which each key has a chain of one
// entry, as it has while a propagation of that row is in flight; only
// such a row is asked for.
func grantLedger(keys ...string) *ledger {
	l := &ledger{rows: map[string]*rowChain{}}
	for _, k := range keys {
		l.admit(&retry{m: &Manager{}, t: &Task{lockKey: k}}, nil, time.Time{})
	}
	return l
}

func TestGrantExclusiveMutualExclusion(t *testing.T) {
	l := grantLedger("k")
	var held int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				release := l.serialize("k", true, wait.OnChannel)
				if atomic.AddInt32(&held, 1) != 1 {
					t.Error("two goroutines inside exclusive section")
				}
				atomic.AddInt32(&held, -1)
				release()
			}
		}()
	}
	wg.Wait()
}

func TestGrantSharedHoldersInParallel(t *testing.T) {
	l := grantLedger("k")
	var inside, peak int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			release := l.serialize("k", false, wait.OnChannel)
			cur := atomic.AddInt32(&inside, 1)
			for {
				p := atomic.LoadInt32(&peak)
				if cur <= p || atomic.CompareAndSwapInt32(&peak, p, cur) {
					break
				}
			}
			time.Sleep(10 * time.Millisecond)
			atomic.AddInt32(&inside, -1)
			release()
		}()
	}
	close(start)
	wg.Wait()
	if peak < 2 {
		t.Fatalf("shared grant never held concurrently (peak %d)", peak)
	}
}

func TestGrantSharedBlocksExclusive(t *testing.T) {
	l := grantLedger("k")
	rRelease := l.serialize("k", false, wait.OnChannel)
	acquired := make(chan struct{})
	go func() {
		release := l.serialize("k", true, wait.OnChannel)
		close(acquired)
		release()
	}()
	select {
	case <-acquired:
		t.Fatal("exclusive grant taken while a shared one is held")
	case <-time.After(30 * time.Millisecond):
	}
	rRelease()
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("exclusive grant never taken after the shared one was released")
	}
}

func TestGrantRowsIndependent(t *testing.T) {
	l := grantLedger("a", "b")
	releaseA := l.serialize("a", true, wait.OnChannel)
	done := make(chan struct{})
	go func() {
		l.serialize("b", true, wait.OnChannel)()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("row b blocked by a grant of row a")
	}
	releaseA()
}

// A release is idempotent, and the row's record — its turns with it —
// goes when its chain's last entry leaves.
func TestGrantReleaseIdempotent(t *testing.T) {
	l := grantLedger("k")
	release := l.serialize("k", true, wait.OnChannel)
	release()
	release() // must not free a turn someone else holds
	r2 := l.serialize("k", true, wait.OnChannel)
	done := make(chan struct{})
	go func() {
		l.serialize("k", true, wait.OnChannel)()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("a second release freed the row under its next holder")
	case <-time.After(30 * time.Millisecond):
	}
	r2()
	<-done
	l.leave(l.rows["k"].last)
	if len(l.rows) != 0 {
		t.Fatalf("%d row records outlive their chains", len(l.rows))
	}
}

// evented parks in the manner of the simulator's event fabric: wake only
// makes the parked caller runnable, and a separate thread of control —
// the "scheduler" — resumes runnable callers one at a time, in wake
// order, from later events. It checks wait.Parker's contract as it goes.
type evented struct {
	t        *testing.T
	mu       sync.Mutex
	runnable []chan struct{}
	parks    int
	wakes    int
}

func (e *evented) park(arm func(wake func())) {
	resumed := make(chan struct{})
	inArm, woken := true, false
	e.mu.Lock()
	e.parks++
	e.mu.Unlock()
	arm(func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		if inArm {
			e.t.Error("wake called from inside arm")
		}
		if woken {
			e.t.Error("wake delivered twice")
		}
		woken = true
		e.wakes++
		e.runnable = append(e.runnable, resumed)
	})
	e.mu.Lock()
	inArm = false
	e.mu.Unlock()
	<-resumed
}

// run is the scheduler: it resumes runnable callers until stop closes.
func (e *evented) run(stop <-chan struct{}) {
	for {
		e.mu.Lock()
		var next chan struct{}
		if len(e.runnable) > 0 {
			next, e.runnable = e.runnable[0], e.runnable[1:]
		}
		e.mu.Unlock()
		if next != nil {
			close(next)
			continue
		}
		select {
		case <-stop:
			return
		case <-time.After(100 * time.Microsecond):
		}
	}
}

// forEachParker runs f over the channel parker of plain goroutines and
// over the event-style one.
func forEachParker(t *testing.T, f func(t *testing.T, park wait.Parker)) {
	t.Run("channel", func(t *testing.T) { f(t, wait.OnChannel) })
	t.Run("event", func(t *testing.T) {
		e := &evented{t: t}
		stop := make(chan struct{})
		go e.run(stop)
		f(t, e.park)
		close(stop)
		if e.parks != e.wakes {
			t.Errorf("%d parks but %d wakes", e.parks, e.wakes)
		}
	})
}

// Grants are FIFO: behind a held exclusive turn queue a writer, two
// readers, a writer and a reader, in that order. They must be let in as
// W1 alone, then R1 and R2 together (readers share), then W2 alone (a
// writer excludes, and is not overtaken by R3), then R3 — every waiter
// woken exactly once.
func TestGrantFIFOBothParkers(t *testing.T) {
	forEachParker(t, func(t *testing.T, park wait.Parker) {
		l := grantLedger("k")
		var queued atomic.Int32
		counted := func(arm func(wake func())) {
			park(func(wake func()) {
				arm(wake) // queues the waiter
				queued.Add(1)
			})
		}
		holder := l.serialize("k", true, park)
		var mu sync.Mutex
		var granted []string
		proceed := map[string]chan struct{}{}
		var wg sync.WaitGroup
		for i, w := range []struct {
			name      string
			exclusive bool
		}{{"W1", true}, {"R1", false}, {"R2", false}, {"W2", true}, {"R3", false}} {
			proceed[w.name] = make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				release := l.serialize("k", w.exclusive, counted)
				mu.Lock()
				granted = append(granted, w.name)
				mu.Unlock()
				<-proceed[w.name]
				release()
			}()
			for int(queued.Load()) != i+1 { // queued before the next one arrives
				time.Sleep(100 * time.Microsecond)
			}
		}
		expect := func(want ...string) {
			t.Helper()
			deadline := time.Now().Add(5 * time.Second)
			for {
				mu.Lock()
				got := append([]string(nil), granted...)
				mu.Unlock()
				if len(got) >= len(want) || time.Now().After(deadline) {
					time.Sleep(5 * time.Millisecond) // anything let in too early shows up
					mu.Lock()
					got = append([]string(nil), granted...)
					mu.Unlock()
					if len(got) >= 3 {
						sort.Strings(got[1:3]) // R1 and R2 enter together, in either order
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("granted so far %v, want %v", got, want)
					}
					return
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		expect()
		holder()
		expect("W1")
		close(proceed["W1"])
		expect("W1", "R1", "R2")
		close(proceed["R1"])
		expect("W1", "R1", "R2") // R2 still holds: the writer waits
		close(proceed["R2"])
		expect("W1", "R1", "R2", "W2")
		close(proceed["W2"])
		expect("W1", "R1", "R2", "W2", "R3")
		close(proceed["R3"])
		wg.Wait()
	})
}

// Mutual exclusion under contention, on both parkers.
func TestGrantContendedBothParkers(t *testing.T) {
	forEachParker(t, func(t *testing.T, park wait.Parker) {
		l := grantLedger("k")
		var writers, readers int32
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 200; j++ {
					exclusive := (g+j)%3 == 0
					release := l.serialize("k", exclusive, park)
					if exclusive {
						if atomic.AddInt32(&writers, 1) != 1 || atomic.LoadInt32(&readers) != 0 {
							t.Error("a writer shares the row")
						}
						atomic.AddInt32(&writers, -1)
					} else {
						atomic.AddInt32(&readers, 1)
						if atomic.LoadInt32(&writers) != 0 {
							t.Error("a reader inside with a writer")
						}
						atomic.AddInt32(&readers, -1)
					}
					release()
				}
			}()
		}
		wg.Wait()
	})
}

package wait

import (
	"sync"
	"testing"
)

// An open before the wait lets the waiter pass without parking; a shut
// gate arms a wake, which the first of several opens calls.
func TestGateWakesItsWaiterOnce(t *testing.T) {
	var g Gate
	g.Open()
	g.Wait(func(func(func())) { t.Fatal("an open gate parked its waiter") })

	g.Shut()
	wakes := 0
	g.Wait(func(arm func(func())) { arm(func() { wakes++ }) }) // arms and returns at once
	g.Open()
	g.Open()
	if wakes != 1 {
		t.Fatalf("two opens woke the waiter %d times, want 1", wakes)
	}
}

// Slots hands a released slot to the longest waiter, in arrival order.
func TestSlotsServeWaitersInOrder(t *testing.T) {
	s := NewSlots(1)
	if s.Acquire(OnChannel) {
		t.Fatal("a free slot made its taker wait")
	}
	var (
		mu    sync.Mutex
		order []int
		wg    sync.WaitGroup
	)
	for i := 0; i < 3; i++ {
		queued := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Acquire(func(arm func(func())) { OnChannel(func(wake func()) { arm(wake); close(queued) }) })
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			s.Release()
		}()
		<-queued
	}
	s.Release()
	wg.Wait()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("slots granted in order %v, want [0 1 2]", order)
	}
	if s.Acquire(OnChannel) {
		t.Fatal("the last release did not free the slot")
	}
	var unbounded *Slots
	unbounded.Release()
	if unbounded.Acquire(OnChannel) {
		t.Fatal("a nil Slots made its taker wait")
	}
}

// The last piece finishes a countdown: then learns whether every piece
// completed, and Done opens after it.
func TestCountdownReportsCompleteness(t *testing.T) {
	for _, stale := range []bool{false, true} {
		var got *bool
		c := NewCountdown(3, func(complete bool) { got = &complete })
		c.Finish(true)
		c.Finish(!stale)
		if got != nil || c.Finished() {
			t.Fatal("countdown finished before its last piece")
		}
		c.Finish(true)
		if got == nil || *got == stale || !c.Finished() {
			t.Fatalf("stale=%v: then got %v, finished %v", stale, got, c.Finished())
		}
		c.Done.Wait(func(func(func())) { t.Fatal("Done parked after the last piece") })
	}
}

// Held counts the slots taken by returned Acquires: a slot handed to a
// queued waiter counts once that waiter has it, not while it waits.
func TestSlotsHeld(t *testing.T) {
	s := NewSlots(1)
	s.Acquire(OnChannel)
	queued, acquired := make(chan struct{}), make(chan struct{})
	go func() {
		s.Acquire(func(arm func(func())) { OnChannel(func(wake func()) { arm(wake); close(queued) }) })
		close(acquired)
	}()
	<-queued
	if n := s.Held(); n != 1 {
		t.Fatalf("held = %d with one taken and one queued, want 1", n)
	}
	s.Release()
	<-acquired
	if n := s.Held(); n != 1 {
		t.Fatalf("held = %d once the waiter has the released slot, want 1", n)
	}
	s.Release()
	var unbounded *Slots
	if n, m := s.Held(), unbounded.Held(); n != 0 || m != 0 {
		t.Fatalf("held = %d after every release, %d on a nil Slots; want 0", n, m)
	}
}

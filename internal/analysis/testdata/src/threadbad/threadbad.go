// Package threadbad is the golden fixture for the one-thread rule of
// goexit and clockcheck, loaded as if it lived under internal/core: the
// view manager once started a goroutine per propagation and per intent,
// and waited out its back-off on a clock channel, so the simulator could
// not host it.
package threadbad

import (
	"sync"
	"time"

	"vstore/internal/clock"
)

func bad(clk clock.Clock, wg *sync.WaitGroup, done chan struct{}) {
	wg.Add(1)
	go func() { // want "a goroutine of its own cannot be hosted on one thread of control"
		defer wg.Done()
		<-done
	}()
	select {
	case <-done:
	case <-clk.After(time.Millisecond): // want "Clock.After blocks its caller"
	}
	clk.Sleep(time.Millisecond)  // want "Clock.Sleep blocks its caller"
	t := clk.Ticker(time.Second) // want "Clock.Ticker blocks its caller"
	t.Stop()
}

func ok(clk clock.Clock, park func(arm func(wake func()))) time.Time {
	park(func(wake func()) { clk.AfterFunc(time.Millisecond, wake) }) // ok: arm a wake, park
	return clk.Now()
}

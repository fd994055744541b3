// Package ctxclockbad is the golden fixture for clockcheck's context
// rule, loaded as if it lived under internal/core: a propagation's
// abandon deadline was once a context.WithTimeout while its back-off
// ran on the injected clock.
package ctxclockbad

import (
	"context"
	"time"
)

// afterFunc stands in for clock.Clock.AfterFunc.
type afterFunc func(d time.Duration, f func()) (stop func() bool)

func bad(parent context.Context, retry time.Duration, at time.Time) {
	ctx, cancel := context.WithTimeout(parent, retry) // want "context.WithTimeout arms a wall-clock timer"
	defer cancel()
	_, cancel2 := context.WithDeadline(ctx, at) // want "context.WithDeadline arms a wall-clock timer"
	defer cancel2()
	_, cancel3 := context.WithTimeoutCause(ctx, retry, context.DeadlineExceeded) // want "context.WithTimeoutCause arms a wall-clock timer"
	defer cancel3()
}

func ok(parent context.Context, retry time.Duration, after afterFunc) (context.Context, func()) {
	ctx, cancel := context.WithCancelCause(parent) // ok: no timer of its own
	stop := after(retry, func() { cancel(context.DeadlineExceeded) })
	return ctx, func() { stop(); cancel(nil) }
}

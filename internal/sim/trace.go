package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"
)

// TraceEvent is one recorded occurrence: an executed scheduler event or
// an explicitly recorded milestone.
type TraceEvent struct {
	At     time.Duration
	Kind   string
	Detail string
}

func (e TraceEvent) String() string {
	return fmt.Sprintf("%12v  %-10s %s", e.At, e.Kind, e.Detail)
}

// Trace is the append-only event log of a simulation run. Two runs of
// the same seed produce byte-identical traces; the hash is the cheap
// way to assert that.
type Trace struct {
	events []TraceEvent
}

func (t *Trace) add(at time.Duration, kind, detail string) {
	t.events = append(t.events, TraceEvent{At: at, Kind: kind, Detail: detail})
}

// Len returns the number of recorded events.
func (t *Trace) Len() int { return len(t.events) }

// Tail returns the last n events (all of them if fewer).
func (t *Trace) Tail(n int) []TraceEvent {
	if n >= len(t.events) {
		return t.events
	}
	return t.events[len(t.events)-n:]
}

// Hash folds the whole trace into a hex sha256 digest.
func (t *Trace) Hash() string {
	h := sha256.New()
	for _, e := range t.events {
		fmt.Fprintf(h, "%d|%s|%s\n", int64(e.At), e.Kind, e.Detail)
	}
	return hex.EncodeToString(h.Sum(nil))
}

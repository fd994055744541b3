// Package metrics holds the store's one latency histogram, AtomicHist,
// and the per-op-class set of them, LatencySet, that vstore.Stats, the
// simulator's report, the figure harness and the load generator all
// read.
package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// AtomicHist is a log-linear histogram whose Observe path is two atomic
// adds — cheap enough to sit on every request. Values 0–15 each have a
// bucket of their own; every higher power of two [2^e, 2^(e+1)) is split
// into 16 equal sub-buckets. A quantile reads as its bucket's inclusive
// upper edge, which is at most 1/16 above the true value (values below
// 32 read exactly). Values are unitless int64s: the serving stack
// records latencies in microseconds (ObserveDuration), the load driver
// in nanoseconds, and chain walks record hop counts, all in this type.
type AtomicHist struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
}

// histSub is the number of sub-buckets per power of two.
const histSub = 16

// histBuckets covers 0 .. 2^63-1: every non-negative int64 lands in a
// real bucket, so no clamping branch on the hot path. The largest value
// has bits.Len64 = 63, so the top shift is 63-5 and the top bucket
// 58*16 + 31.
const histBuckets = (63-5)*histSub + 2*histSub

// histBucket maps a non-negative value to its bucket index. A value
// below 32 is its own index; above, the shift keeps the value's top five
// bits, whose low four pick the sub-bucket.
func histBucket(v int64) int {
	shift := bits.Len64(uint64(v)|histSub) - 5
	return shift*histSub + int(uint64(v)>>uint(shift))
}

// bucketUpper is the largest value bucket i can hold.
func bucketUpper(i int) int64 {
	if i < 2*histSub {
		return int64(i)
	}
	shift := i/histSub - 1
	return int64(uint64(i%histSub+histSub+1)<<uint(shift) - 1)
}

// Observe records one value. Negative values count as zero.
func (h *AtomicHist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[histBucket(v)].Add(1)
	h.sum.Add(v)
}

// ObserveDuration records d in microseconds.
func (h *AtomicHist) ObserveDuration(d time.Duration) {
	h.Observe(d.Microseconds())
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1): the
// inclusive upper edge of the bucket holding the ⌈q·n⌉-th smallest
// observation.
func (h *AtomicHist) Quantile(q float64) int64 {
	var counts [histBuckets]int64
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	return quantileOf(&counts, total, q)
}

func quantileOf(counts *[histBuckets]int64, total int64, q float64) int64 {
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(min(q, 1) * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= target {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// Snapshot summarizes the histogram. Concurrent Observes may land
// between bucket loads; the snapshot is still internally plausible
// (quantiles computed from one consistent pass over loaded counts).
func (h *AtomicHist) Snapshot() HistSnapshot {
	var counts [histBuckets]int64
	var total int64
	maxBucket := -1
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
		if counts[i] > 0 {
			maxBucket = i
		}
	}
	s := HistSnapshot{Count: total, Sum: h.sum.Load()}
	if total > 0 {
		s.P50 = quantileOf(&counts, total, 0.50)
		s.P95 = quantileOf(&counts, total, 0.95)
		s.P99 = quantileOf(&counts, total, 0.99)
		s.Max = bucketUpper(maxBucket)
	}
	return s
}

// HistSnapshot is a point-in-time summary of an AtomicHist. Units are
// whatever the histogram recorded — microseconds for the store's
// latencies, hops for chain lengths. Percentiles and Max are bucket
// upper edges, at most 1/16 above the true value.
type HistSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	P50   int64 `json:"p50"`
	P95   int64 `json:"p95"`
	P99   int64 `json:"p99"`
	Max   int64 `json:"max"`
}

// Mean returns the average observation, zero when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Sub returns the counter-wise difference s - prev, for rate
// reporting over an interval. Percentiles keep s's (cumulative)
// values since bucket deltas are not retained.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	s.Count -= prev.Count
	s.Sum -= prev.Sum
	return s
}

// OpClass labels the latency series the store tracks end to end.
type OpClass int

const (
	// OpRead is a base-table Get.
	OpRead OpClass = iota
	// OpWrite is a Put (client call to quorum ack).
	OpWrite
	// OpViewRead is a GetView, excluding any session wait.
	OpViewRead
	// OpIndexRead is a QueryIndex.
	OpIndexRead
	// OpSessionWait is time blocked in Definition-4 session waits
	// before a view read, attributed separately from the read itself.
	OpSessionWait
	// OpWALAppend is one durable-mode WAL record append (framing +
	// write syscall, excluding any fsync wait).
	OpWALAppend
	// OpWALSync is one WAL fsync — a group commit may cover many
	// appends with one observation here.
	OpWALSync

	NumOpClasses
)

// String names the op class for stats output.
func (c OpClass) String() string {
	switch c {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpViewRead:
		return "view_read"
	case OpIndexRead:
		return "index_read"
	case OpSessionWait:
		return "session_wait"
	case OpWALAppend:
		return "wal_append"
	case OpWALSync:
		return "wal_sync"
	}
	return "unknown"
}

// LatencySet is one AtomicHist per op class.
type LatencySet struct {
	hists [NumOpClasses]AtomicHist
}

// NewLatencySet returns an empty set.
func NewLatencySet() *LatencySet { return &LatencySet{} }

// Observe records a duration for class c. Nil-safe.
func (l *LatencySet) Observe(c OpClass, d time.Duration) {
	if l == nil {
		return
	}
	l.hists[c].ObserveDuration(d)
}

// Snapshot summarizes the histogram for class c. Nil-safe.
func (l *LatencySet) Snapshot(c OpClass) HistSnapshot {
	if l == nil {
		return HistSnapshot{}
	}
	return l.hists[c].Snapshot()
}

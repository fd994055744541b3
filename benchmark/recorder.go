package main

import (
	"math"
	"sort"
	"time"
)

// recorder keeps every latency sample of one client exactly. Exact
// samples cost 8 bytes per operation (a 15 s window at 80k ops/s is
// ~10 MB) and make every quantile exact; the DB's own log2 histograms
// round a 22 µs median to 31 µs, which is why they are never consulted
// here.
//
// A recorder belongs to one goroutine. merge combines the recorders of
// all clients once they have stopped.
type recorder struct {
	samples []int64 // nanoseconds
}

// recorderCap preallocates the sample buffer so appends inside the
// timed window neither allocate nor show up in allocs_per_op.
const recorderCap = 1 << 20

func newRecorder() *recorder {
	return &recorder{samples: make([]int64, 0, recorderCap)}
}

func (r *recorder) observe(d time.Duration) { r.samples = append(r.samples, int64(d)) }

// merged is the sorted union of several clients' samples.
type merged []int64

func merge(recs ...*recorder) merged {
	var m merged
	for _, r := range recs {
		m = append(m, r.samples...)
	}
	sort.Slice(m, func(i, j int) bool { return m[i] < m[j] })
	return m
}

// quantile is the nearest-rank q-quantile: the smallest sample with at
// least q of the samples at or below it. Zero when there are none.
func (m merged) quantile(q float64) int64 {
	if len(m) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(m)))) - 1
	return m[min(max(rank, 0), len(m)-1)]
}

func (m merged) mean() float64 {
	if len(m) == 0 {
		return 0
	}
	var sum float64
	for _, x := range m {
		sum += float64(x)
	}
	return sum / float64(len(m))
}

// median of v (mean of the two middle values when len(v) is even);
// zero when v is empty. v is reordered.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	mid := len(v) / 2
	if len(v)%2 == 1 {
		return v[mid]
	}
	return (v[mid-1] + v[mid]) / 2
}

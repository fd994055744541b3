package metrics

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"vstore/internal/race"
)

// TestAtomicHistBuckets pins the log-linear bucket layout: values below
// 32 have a bucket each (0–15 their own, 16–31 the sixteen width-1
// sub-buckets of 2^4); from 32 on, each power of two [2^e, 2^(e+1)) is
// sixteen buckets of width 2^(e-4), and quantiles report the inclusive
// upper edge of their bucket.
func TestAtomicHistBuckets(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
		upper  int64
	}{
		{0, 0, 0},
		{-3, 0, 0}, // negatives clamp to zero
		{1, 1, 1},
		{7, 7, 7},
		{15, 15, 15},
		{16, 16, 16},
		{31, 31, 31},
		{32, 32, 33},
		{33, 32, 33},
		{34, 33, 35},
		{63, 47, 63},
		{64, 48, 67},
		{100, 57, 103},
		{1000, 111, 1023},
		{1023, 111, 1023},
		{1024, 112, 1087},
		{math.MaxInt64, histBuckets - 1, math.MaxInt64},
	}
	for _, c := range cases {
		if got := histBucket(max(c.v, 0)); got != c.bucket {
			t.Errorf("histBucket(%d) = %d, want %d", c.v, got, c.bucket)
		}
		var h AtomicHist
		h.Observe(c.v)
		if got := h.Quantile(1.0); got != c.upper {
			t.Errorf("Observe(%d): Quantile(1.0) = %d, want bucket upper %d", c.v, got, c.upper)
		}
		if got := h.Snapshot().Count; got != 1 {
			t.Errorf("Observe(%d): Count = %d, want 1", c.v, got)
		}
	}
	// Every bucket's upper edge is the last value mapped to it.
	for i := 0; i < histBuckets-1; i++ {
		u := bucketUpper(i)
		if histBucket(u) != i || histBucket(u+1) != i+1 {
			t.Fatalf("bucket %d: upper edge %d maps to %d, %d to %d", i, u, histBucket(u), u+1, histBucket(u+1))
		}
	}
}

// TestAtomicHistQuantiles: the q-quantile is the ⌈q·n⌉-th smallest
// observation's bucket. 5 reads exactly (below 32); 1000 reads as its
// bucket's upper edge, 1023.
func TestAtomicHistQuantiles(t *testing.T) {
	var h AtomicHist
	for i := 0; i < 99; i++ {
		h.Observe(5)
	}
	h.Observe(1000) // bucket [992,1023]
	if p50 := h.Quantile(0.50); p50 != 5 {
		t.Errorf("p50 = %d, want 5", p50)
	}
	if p99 := h.Quantile(0.99); p99 != 5 {
		t.Errorf("p99 = %d, want 5", p99)
	}
	if p100 := h.Quantile(1.0); p100 != 1023 {
		t.Errorf("p100 = %d, want 1023", p100)
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Sum != 99*5+1000 {
		t.Errorf("snapshot count/sum = %d/%d, want 100/%d", s.Count, s.Sum, 99*5+1000)
	}
	if s.Max != 1023 {
		t.Errorf("snapshot max = %d, want 1023", s.Max)
	}
	if m := s.Mean(); m != float64(99*5+1000)/100 {
		t.Errorf("mean = %v", m)
	}
	// Two observations: the median is the first (rank ⌈0.5·2⌉ = 1).
	var two AtomicHist
	two.Observe(3)
	two.Observe(9)
	if p50 := two.Quantile(0.5); p50 != 3 {
		t.Errorf("p50 of {3, 9} = %d, want 3", p50)
	}
	if p51 := two.Quantile(0.51); p51 != 9 {
		t.Errorf("p51 of {3, 9} = %d, want 9", p51)
	}
}

// TestAtomicHistQuantileBound is the layout's promise: every quantile
// and snapshot percentile is at least the exact ⌈q·n⌉-th smallest value
// and at most 1/16 above it, so values below 16 read exactly. The
// values span 2^0 .. 2^40, plus every value 0–15.
func TestAtomicHistQuantileBound(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	check := func(name string, vals []int64) {
		t.Helper()
		var h AtomicHist
		for _, v := range vals {
			h.Observe(v)
		}
		sorted := slices.Clone(vals)
		slices.Sort(sorted)
		s := h.Snapshot()
		for _, c := range []struct {
			q    float64
			snap int64
		}{{0.5, s.P50}, {0.95, s.P95}, {0.99, s.P99}, {1, s.Max}} {
			exact := sorted[int(math.Ceil(c.q*float64(len(sorted))))-1]
			for _, got := range []int64{h.Quantile(c.q), c.snap} {
				if got < exact || 16*(got-exact) > exact {
					t.Fatalf("%s (n=%d): q%.2f = %d, exact %d: outside [exact, exact+exact/16]", name, len(vals), c.q, got, exact)
				}
			}
		}
	}
	for v := int64(0); v < 16; v++ {
		check("single", []int64{v})
	}
	for trial := 0; trial < 300; trial++ {
		vals := make([]int64, 1+r.Intn(400))
		for i := range vals {
			if r.Intn(8) == 0 {
				vals[i] = r.Int63n(16)
				continue
			}
			e := r.Intn(40)
			vals[i] = int64(1)<<e + r.Int63n(int64(1)<<e)
		}
		if trial == 0 {
			for v := int64(0); v < 16; v++ {
				vals = append(vals, v)
			}
		}
		check("random", vals)
	}
}

// TestAtomicHistObserveAllocs: Observe is two atomic adds, nothing
// allocated.
func TestAtomicHistObserveAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var h AtomicHist
	v := int64(1)
	if got := testing.AllocsPerRun(1000, func() {
		h.Observe(v)
		v = v*3 + 1
	}); got != 0 {
		t.Fatalf("Observe allocates %v per call, want 0", got)
	}
}

// TestQuantileAccuracy: latencies recorded in nanoseconds, uniform
// between 10µs and 100ms, read back within the 1/16 bound.
func TestQuantileAccuracy(t *testing.T) {
	var h AtomicHist
	r := rand.New(rand.NewSource(1))
	samples := make([]int64, 20000)
	for i := range samples {
		d := time.Duration(float64(10*time.Microsecond) * (1 + r.Float64()*9999))
		samples[i] = int64(d)
		h.Observe(int64(d))
	}
	slices.Sort(samples)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := samples[int(math.Ceil(q*float64(len(samples))))-1]
		if got := h.Quantile(q); got < exact || got > exact+exact/16 {
			t.Fatalf("q%.2f = %v, exact %v", q, time.Duration(got), time.Duration(exact))
		}
	}
}

// TestAtomicHistMeanMax: the mean is exact (a sum, not buckets); Max is
// the upper edge of the highest bucket that holds a value.
func TestAtomicHistMeanMax(t *testing.T) {
	var h AtomicHist
	for _, d := range []time.Duration{time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond} {
		h.Observe(int64(d))
	}
	s := h.Snapshot()
	if s.Count != 3 || time.Duration(s.Mean()) != 2*time.Millisecond {
		t.Fatalf("count/mean = %d/%v", s.Count, time.Duration(s.Mean()))
	}
	if mx := int64(3 * time.Millisecond); s.Max < mx || s.Max > mx+mx/16 {
		t.Fatalf("max = %v", time.Duration(s.Max))
	}
}

// TestQuantileClamped: q outside (0, 1] clamps — q <= 0 reads the
// smallest observation's bucket (rank 1), q > 1 the largest.
func TestQuantileClamped(t *testing.T) {
	var h AtomicHist
	h.Observe(5)
	h.Observe(1000)
	if lo, first := h.Quantile(-1), h.Quantile(0.001); lo != first || lo != 5 {
		t.Errorf("Quantile(-1) = %d, Quantile(0.001) = %d, want both 5", lo, first)
	}
	if got := h.Quantile(0); got != 5 {
		t.Errorf("Quantile(0) = %d, want 5", got)
	}
	if hi, top := h.Quantile(2), h.Quantile(1); hi != top || hi != 1023 {
		t.Errorf("Quantile(2) = %d, Quantile(1) = %d, want both 1023", hi, top)
	}
	// A single observation: every quantile is its bucket.
	var one AtomicHist
	one.ObserveDuration(time.Second)
	for _, q := range []float64{0.01, 0.5, 1} {
		if got := one.Quantile(q); got < 1e6 || 16*(got-1e6) > 1e6 {
			t.Errorf("q%.2f of one 1s sample = %dµs, want within 1/16 above 1e6", q, got)
		}
	}
}

// TestObserveNegative: a negative value counts as one observation of
// zero — in the buckets and in the sum, so the mean cannot go negative.
func TestObserveNegative(t *testing.T) {
	var h AtomicHist
	h.Observe(-7)
	h.ObserveDuration(-time.Second)
	s := h.Snapshot()
	if s != (HistSnapshot{Count: 2}) {
		t.Fatalf("snapshot after two negatives = %+v, want count 2 and all else 0", s)
	}
	if m := s.Mean(); m != 0 {
		t.Fatalf("mean = %v, want 0", m)
	}
}

// TestConcurrentObserve: goroutines sharing one LatencySet, as a node's
// request handlers do, lose no observation of any class and no part of
// any sum, while Snapshots run alongside.
func TestConcurrentObserve(t *testing.T) {
	ls := NewLatencySet()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c := OpClass((w + i) % int(NumOpClasses))
				ls.Observe(c, time.Duration(i)*time.Microsecond)
				if i%500 == 0 {
					ls.Snapshot(c)
				}
			}
		}(w)
	}
	wg.Wait()
	var want [NumOpClasses]HistSnapshot
	for w := 0; w < workers; w++ {
		for i := 0; i < per; i++ {
			c := OpClass((w + i) % int(NumOpClasses))
			want[c].Count++
			want[c].Sum += int64(i)
		}
	}
	for c := OpRead; c < NumOpClasses; c++ {
		s := ls.Snapshot(c)
		if s.Count != want[c].Count || s.Sum != want[c].Sum {
			t.Errorf("%s: count/sum = %d/%d, want %d/%d", c, s.Count, s.Sum, want[c].Count, want[c].Sum)
		}
	}
}

func TestAtomicHistEmpty(t *testing.T) {
	var h AtomicHist
	if q := h.Quantile(0.99); q != 0 {
		t.Errorf("empty quantile = %d, want 0", q)
	}
	if s := h.Snapshot(); s != (HistSnapshot{}) {
		t.Errorf("empty snapshot = %+v", s)
	}
}

// TestAtomicHistConcurrent exercises concurrent Observe/Snapshot under
// the race detector.
func TestAtomicHistConcurrent(t *testing.T) {
	var h AtomicHist
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*per + i))
				if i%1000 == 0 {
					h.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
}

func TestLatencySet(t *testing.T) {
	ls := NewLatencySet()
	ls.Observe(OpRead, 5*time.Microsecond)
	ls.Observe(OpViewRead, 100*time.Microsecond)
	if c := ls.Snapshot(OpRead).Count; c != 1 {
		t.Errorf("OpRead count = %d, want 1", c)
	}
	if c := ls.Snapshot(OpWrite).Count; c != 0 {
		t.Errorf("OpWrite count = %d, want 0", c)
	}
	// 100 falls in [100, 103], one of the sixteen width-4 buckets of
	// [64, 128).
	if got := ls.Snapshot(OpViewRead).P50; got != 103 {
		t.Errorf("OpViewRead p50 = %d, want 103", got)
	}
	var nilSet *LatencySet
	nilSet.Observe(OpRead, time.Second) // must not panic
	if s := nilSet.Snapshot(OpRead); s.Count != 0 {
		t.Errorf("nil set snapshot = %+v", s)
	}
	for c := OpRead; c < NumOpClasses; c++ {
		if c.String() == "unknown" {
			t.Errorf("op class %d has no name", c)
		}
	}
}

func TestHistSnapshotSub(t *testing.T) {
	a := HistSnapshot{Count: 10, Sum: 100, P50: 7, Max: 63}
	b := HistSnapshot{Count: 4, Sum: 40}
	d := a.Sub(b)
	if d.Count != 6 || d.Sum != 60 {
		t.Errorf("delta = %+v", d)
	}
	if d.P50 != 7 || d.Max != 63 {
		t.Errorf("delta should keep cumulative percentiles: %+v", d)
	}
}

package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The recorder keeps exact samples, so its quantiles must equal the
// nearest-rank quantiles of the sorted raw samples — a relative error
// of 0, well inside the 1 % the benchmark promises — however the
// samples are split over clients.
func TestRecorderQuantilesAreExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recs := []*recorder{newRecorder(), newRecorder(), newRecorder()}
	var raw []int64
	var sum float64
	for _, r := range recs {
		for i := 500 + rng.Intn(1000); i > 0; i-- {
			// Log-normal, like latencies: a dense body and a long tail.
			d := int64(math.Exp(rng.NormFloat64()*1.5+10)) + 1
			r.observe(time.Duration(d))
			raw = append(raw, d)
			sum += float64(d)
		}
	}
	m := merge(recs...)
	if len(m) != len(raw) {
		t.Fatalf("merged %d samples, recorded %d", len(m), len(raw))
	}
	sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1} {
		want := raw[int(math.Ceil(q*float64(len(raw))))-1]
		if got := m.quantile(q); got != want {
			t.Errorf("q=%v: got %d, sorted raw samples give %d", q, got, want)
		}
	}
	if got, want := m.mean(), sum/float64(len(raw)); math.Abs(got-want) > 1e-6*want {
		t.Errorf("mean %v, want %v", got, want)
	}
}

func TestMedianAndQuantileEdges(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	var empty merged
	if empty.quantile(0.5) != 0 || empty.mean() != 0 {
		t.Errorf("empty: quantile %v mean %v", empty.quantile(0.5), empty.mean())
	}
	if got := (merged{5}).quantile(0.99); got != 5 {
		t.Errorf("quantile single = %v", got)
	}
	if got := (merged{1, 2, 3, 4}).quantile(0.5); got != 2 {
		t.Errorf("nearest-rank median of 1..4 = %v, want 2", got)
	}
}

package workload

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestUniformCoversPopulation(t *testing.T) {
	u := Uniform{N: 10, Prefix: "k-"}
	r := rand.New(rand.NewSource(1))
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		k := u.Next(r)
		if !strings.HasPrefix(k, "k-") {
			t.Fatalf("bad key %q", k)
		}
		seen[k] = true
	}
	if len(seen) != 10 {
		t.Fatalf("uniform chooser visited %d keys, want 10", len(seen))
	}
}

func TestZipfSkewed(t *testing.T) {
	z := &Zipf{N: 1000, S: 1.3, Prefix: "k-"}
	r := rand.New(rand.NewSource(2))
	counts := map[string]int{}
	const draws = 20000
	for i := 0; i < draws; i++ {
		counts[z.Next(r)]++
	}
	hot := counts[Key("k-", 0)]
	if hot < draws/20 {
		t.Fatalf("hottest key drawn %d/%d times; not skewed", hot, draws)
	}
}

func TestRangeWidths(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	one := Range{Width: 1, Prefix: "k-"}
	for i := 0; i < 20; i++ {
		if one.Next(r) != Key("k-", 0) {
			t.Fatal("width-1 range must always return key 0")
		}
	}
	ten := Range{Width: 10, Prefix: "k-"}
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		seen[ten.Next(r)] = true
	}
	if len(seen) != 10 {
		t.Fatalf("width-10 range visited %d keys", len(seen))
	}
}

func TestRunClosedLoopMeasures(t *testing.T) {
	res := RunClosedLoop(4, 10*time.Millisecond, 100*time.Millisecond, 1, func(c int, r *rand.Rand) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	// 4 clients, 1ms per op → ~4000 ops/s.
	if res.Throughput < 1000 || res.Throughput > 8000 {
		t.Fatalf("throughput = %.0f, expected around 4000", res.Throughput)
	}
	if res.Latency.Count == 0 {
		t.Fatal("no latencies recorded")
	}
	if res.Mean() < 500*time.Microsecond {
		t.Fatalf("mean latency %v implausible for 1ms ops", res.Mean())
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
}

func TestRunClosedLoopCountsErrors(t *testing.T) {
	boom := errors.New("boom")
	res := RunClosedLoop(2, 0, 50*time.Millisecond, 1, func(c int, r *rand.Rand) error {
		time.Sleep(time.Millisecond)
		if c == 0 {
			return boom
		}
		return nil
	})
	if res.Errors == 0 {
		t.Fatal("errors not counted")
	}
	if res.Latency.Count == 0 {
		t.Fatal("successful ops not measured")
	}
}

func TestRunFixedOps(t *testing.T) {
	calls := 0
	res := RunFixedOps(100, 1, func(r *rand.Rand) error {
		calls++
		return nil
	})
	if calls != 100 || res.Latency.Count != 100 {
		t.Fatalf("calls=%d measured=%d", calls, res.Latency.Count)
	}
}

func TestRunFixedOpsErrors(t *testing.T) {
	res := RunFixedOps(10, 1, func(r *rand.Rand) error { return errors.New("x") })
	if res.Errors != 10 || res.Latency.Count != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestSummaryNonEmpty(t *testing.T) {
	res := RunFixedOps(1, 1, func(r *rand.Rand) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	s := res.Summary()
	if !strings.HasPrefix(s, "n=1 mean=") || strings.Contains(s, "mean=0s") {
		t.Fatalf("summary = %q", s)
	}
}

package sim

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	physmem "vstore/internal/physical/mem"
)

var update = flag.Bool("update", false, "rewrite the cost-table golden files in testdata")

// The cost tables of the pinned legs are golden files: a change to the
// protocol's work shows as their diff, and re-pinning one is a reviewed
// event, like re-pinning a trace hash. Each file holds what
//
//	go run ./cmd/mvverify -costs -rounds 1 <leg's flags>
//
// prints under its "costs seed=" line. Regenerate them with
//
//	go test ./internal/sim -run TestCostTables -update
func TestCostTables(t *testing.T) {
	scenario := func(name string) Config {
		cfg, err := WithScenario(Config{Seed: 7}, name)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	for _, leg := range []struct {
		name string
		cfg  func() Config
	}{
		{"seed42", func() Config { return Config{Seed: 42, PathCompression: true} }},      // -seed 42 -compress
		{"durable3", func() Config { return Config{Seed: 3, Backend: physmem.New()} }},    // -durable -backend mem -seed 3
		{"hot-row", func() Config { return scenario("hot-row") }},                         // -scenario hot-row -seed 7
		{"define-during-burst", func() Config { return scenario("define-during-burst") }}, // -scenario define-during-burst -seed 7
		{"shared-row", func() Config { return scenario("shared-row") }},                   // -scenario shared-row -seed 7
	} {
		t.Run(leg.name, func(t *testing.T) {
			r := Run(leg.cfg())
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			got := r.CostTable()
			path := filepath.Join("testdata", "costs_"+leg.name+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (create it with -update)", err)
			}
			if got != string(want) {
				t.Errorf("cost table of %s changed; if the change is meant, re-pin with -update and explain the diff.\ngot:\n%s\nwant:\n%s", leg.name, got, want)
			}
		})
	}
}

// One writer of one row, fault-free and without jitter, each
// propagation starting as soon as its Put is acknowledged: every
// propagation waits for its predecessor's on the row lock and then
// succeeds at its first attempt, and every replica holds a write before
// the next round reaches it (no digest mismatch), so each operation's
// account is exactly the traced ladder of a view-key Put: 3 client
// requests, then the propagation's. The first
// write creates the row: a walk of the missing anchor, a read of the
// base row, three writes. Every later one supersedes the live row and
// copies from it: one walk, three writes, no base read.
func TestCostsSingleWriter(t *testing.T) {
	r := Run(Config{Seed: 1, hotRows: 1, OpsPerClient: 6, MaxPropDelay: -1, Jitter: -1, Crashes: -1, Partitions: -1, DropProb: -1})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	// Per operation, by reqKinds: put+preread, put, get, getdigest,
	// multiget, other. Each majority read is one full read and two digests.
	want := map[string]struct {
		ops   int
		perOp [len(reqKinds)]int
	}{
		classFirst:     {1, [...]int{3, 9, 2, 4, 0, 0}},
		classSupersede: {5, [...]int{3, 9, 1, 2, 0, 0}},
	}
	for _, c := range r.Costs {
		if c.Class == classBackground {
			continue
		}
		w, ok := want[c.Class]
		var perOp [len(reqKinds)]int
		for i, v := range c.Reqs {
			perOp[i] = v / max(c.Ops, 1)
		}
		if !ok || c.Ops != w.ops || perOp != w.perOp || c.Totals[0] != c.Totals[len(c.Totals)-1] {
			t.Errorf("%s: %d ops costing %v requests (%v each), want %d ops of %v", c.Class, c.Ops, c.Totals, perOp, w.ops, w.perOp)
		}
		delete(want, c.Class)
	}
	if len(want) > 0 {
		t.Errorf("no operation of class %v", want)
	}
	if r.PropagationRetries != 0 || r.Propagations != 6 {
		t.Errorf("%d propagations, %d failed attempts; want 6 and 0", r.Propagations, r.PropagationRetries)
	}
}

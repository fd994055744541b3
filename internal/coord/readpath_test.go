package coord

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"vstore/internal/model"
	"vstore/internal/transport"
)

// divergeReplica writes a newer cell directly to a single replica,
// bypassing the coordinator — injected staleness: the other replicas
// now hold an older version and digests disagree.
func divergeReplica(t *testing.T, h *harness, c *Coordinator, rep transport.NodeID, table, row, col, val string, ts int64) {
	t.Helper()
	res := <-h.trans.Call(c.Self(), rep, transport.PutReq{
		Table:   table,
		Row:     row,
		Updates: []model.ColumnUpdate{model.Update(col, []byte(val), ts)},
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
}

func TestDigestReadServesConsistentReplicas(t *testing.T) {
	forEachFabric(t, func(t *testing.T, tr transport.Transport) {
		h := newHarness(t, tr, 3, Options{N: 3})
		c := h.coords[0]
		if err := c.Put(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("c", []byte("v"), 1)}, 3); err != nil {
			t.Fatal(err)
		}
		row, err := c.Get(ctxT(t), "t", "r", []string{"c"}, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		if string(row[0].Value) != "v" {
			t.Fatalf("Get = %v", row)
		}
		st := c.Stats()
		if st.DigestReads != 1 || st.DigestMismatches != 0 {
			t.Fatalf("stats = %+v, want exactly one digest read and no mismatches", st)
		}
	})
}

// TestDigestReadLeavesPlacementOrder checks the shared-slice contract
// of placement: the ring hands every caller the same cached replica
// set, so a digest read coordinated by a replica other than the first —
// which asks itself for the full row first — must reorder a copy of its
// own, never the set.
func TestDigestReadLeavesPlacementOrder(t *testing.T) {
	forEachFabric(t, func(t *testing.T, tr transport.Transport) {
		h := newHarness(t, tr, 4, Options{N: 3})
		reps := h.coords[0].ReplicasFor("t", "r")
		want := append([]transport.NodeID(nil), reps...)
		c := h.coords[want[1]]
		if err := c.Put(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("c", []byte("v"), 1)}, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get(ctxT(t), "t", "r", []string{"c"}, 2, false); err != nil {
			t.Fatal(err)
		}
		if c.Stats().DigestReads != 1 {
			t.Fatalf("stats = %+v, want one digest read", c.Stats())
		}
		for _, got := range [][]transport.NodeID{reps, c.ReplicasFor("t", "r")} {
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("placement order after the read = %v, want %v", got, want)
			}
		}
	})
}

func TestDigestMismatchFallsBackAndRepairs(t *testing.T) {
	// Direct only: that the read itself returns the diverged replica's
	// value holds where every reply is folded, and counted, before Get
	// returns. TestDigestMismatchAsyncRepairsDivergence is the
	// asynchronous twin.
	h := newHarness(t, transport.NewDirect(), 3, Options{N: 3, RequestTimeout: 200 * time.Millisecond})
	c := h.coords[0]
	if err := c.Put(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("c", []byte("old"), 1)}, 3); err != nil {
		t.Fatal(err)
	}
	// One replica races ahead: a newer write lands on it alone.
	reps := c.ReplicasFor("t", "r")
	divergeReplica(t, h, c, reps[2], "t", "r", "c", "new", 2)

	row, err := c.Get(ctxT(t), "t", "r", []string{"c"}, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	// The fallback full round visits every replica, so the read sees
	// the newest version even though only one replica holds it.
	if string(row[0].Value) != "new" {
		t.Fatalf("read %q, want the diverged replica's newer value", row[0].Value)
	}
	st := c.Stats()
	if st.DigestMismatches == 0 {
		t.Fatalf("stats = %+v, want a digest mismatch recorded", st)
	}
	if st.DigestReads != 0 {
		t.Fatalf("stats = %+v, digest fast path must not claim a diverged read", st)
	}
	// The fallback's read repair spreads the newer version everywhere.
	waitFor(t, 2*time.Second, func() bool { return h.replicasHolding("t", "r", "c", "new") == 3 })
}

// TestGetRowDigestMismatchFallsBackAndRepairs is the whole-row twin of
// TestDigestMismatchFallsBackAndRepairs: replicas that diverge in a
// cell's version and in which cells they hold make GetRow fall back to
// the full round, which returns the merged row sorted by column and
// repairs every replica; the next read is then a digest read.
func TestGetRowDigestMismatchFallsBackAndRepairs(t *testing.T) {
	h := newHarness(t, transport.NewDirect(), 3, Options{N: 3, RequestTimeout: 200 * time.Millisecond})
	c := h.coords[0]
	if err := c.Put(ctxT(t), "t", "r", []model.ColumnUpdate{
		model.Update("z", []byte("z1"), 1), model.Update("c", []byte("old"), 1), model.Update("a", []byte("a1"), 1),
	}, 3); err != nil {
		t.Fatal(err)
	}
	reps := c.ReplicasFor("t", "r")
	// Every replica misses some winner, so whichever answers first, the
	// merge must take newer cells from the replies folded after it.
	divergeReplica(t, h, c, reps[2], "t", "r", "c", "new", 2)
	divergeReplica(t, h, c, reps[1], "t", "r", "m", "only", 3)
	divergeReplica(t, h, c, reps[0], "t", "r", "z", "z2", 4)

	es, err := c.GetRow(ctxT(t), "t", "r", 2)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range es {
		got = append(got, string(e.Key)+"="+string(e.Cell.Value))
	}
	if want := []string{"a=a1", "c=new", "m=only", "z=z2"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("GetRow = %v, want the merged row %v", got, want)
	}
	if st := c.Stats(); st.DigestMismatches == 0 || st.DigestReads != 0 {
		t.Fatalf("stats = %+v, want a digest mismatch and no digest-served read", st)
	}
	waitFor(t, 2*time.Second, func() bool {
		return h.replicasHolding("t", "r", "c", "new") == 3 && h.replicasHolding("t", "r", "m", "only") == 3 &&
			h.replicasHolding("t", "r", "z", "z2") == 3
	})
	// Repaired, the replicas' whole-row digests agree with the digest
	// of the full reply's entries.
	again, err := c.GetRow(ctxT(t), "t", "r", 2)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.DigestReads != 1 || len(again) != len(es) {
		t.Fatalf("after repair: GetRow = %v, stats = %+v; want the same row by one digest read", again, st)
	}
}

func TestDigestReadToleratesPartitionedDigestReplica(t *testing.T) {
	forEachFabric(t, func(t *testing.T, tr transport.Transport) {
		h := newHarness(t, tr, 4, Options{N: 3, RequestTimeout: 100 * time.Millisecond})
		// Pick a coordinator that is itself a replica, so the full row is
		// read locally and a digest replica can be partitioned away.
		var c *Coordinator
		var reps []transport.NodeID
		for _, cand := range h.coords {
			rs := cand.ReplicasFor("t", "r")
			for _, rep := range rs {
				if rep == cand.Self() {
					c, reps = cand, rs
				}
			}
		}
		if c == nil {
			t.Fatal("no coordinator is a replica")
		}
		if err := c.Put(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("c", []byte("v"), 1)}, 3); err != nil {
			t.Fatal(err)
		}
		var cut transport.NodeID
		for _, rep := range reps {
			if rep != c.Self() {
				cut = rep
				break
			}
		}
		h.trans.Partition(c.Self(), cut, true)

		row, err := c.Get(ctxT(t), "t", "r", []string{"c"}, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		if string(row[0].Value) != "v" {
			t.Fatalf("Get = %v", row)
		}
		// One digest errored out, but full + remaining digest still make
		// the quorum of two, so the fast path must have served the read.
		if st := c.Stats(); st.DigestReads != 1 {
			t.Fatalf("stats = %+v, want the digest fast path to tolerate the partition", st)
		}
	})
}

func TestDigestReadFallsBackWhenFullReplicaUnreachable(t *testing.T) {
	forEachFabric(t, func(t *testing.T, tr transport.Transport) {
		h := newHarness(t, tr, 4, Options{N: 3, RequestTimeout: 100 * time.Millisecond})
		// Pick a coordinator that is NOT a replica: its full-row request
		// goes to the first replica, which we then partition away.
		var c *Coordinator
		var reps []transport.NodeID
		for _, cand := range h.coords {
			rs := cand.ReplicasFor("t", "r")
			isReplica := false
			for _, rep := range rs {
				if rep == cand.Self() {
					isReplica = true
				}
			}
			if !isReplica {
				c, reps = cand, rs
			}
		}
		if c == nil {
			t.Fatal("every coordinator is a replica")
		}
		if err := c.Put(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("c", []byte("v"), 1)}, 3); err != nil {
			t.Fatal(err)
		}
		h.trans.Partition(c.Self(), reps[0], true)

		row, err := c.Get(ctxT(t), "t", "r", []string{"c"}, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		if string(row[0].Value) != "v" {
			t.Fatalf("Get = %v", row)
		}
		if st := c.Stats(); st.DigestReads != 0 {
			t.Fatalf("stats = %+v, want fallback (full replica unreachable), not a digest read", st)
		}
	})
}

func TestDigestReadAsyncOverSimFabric(t *testing.T) {
	h := newHarness(t, transport.NewSim(transport.SimOptions{Latency: time.Millisecond, Seed: 42}),
		3, Options{N: 3, RequestTimeout: time.Second})
	c := h.coords[0]
	if err := c.Put(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("c", []byte("v"), 1)}, 3); err != nil {
		t.Fatal(err)
	}
	row, err := c.Get(ctxT(t), "t", "r", []string{"c"}, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if string(row[0].Value) != "v" {
		t.Fatalf("Get = %v", row)
	}
	if st := c.Stats(); st.DigestReads != 1 || st.DigestMismatches != 0 {
		t.Fatalf("stats = %+v, want one async digest read", st)
	}
}

func TestDigestMismatchAsyncRepairsDivergence(t *testing.T) {
	h := newHarness(t, transport.NewSim(transport.SimOptions{Latency: time.Millisecond, Seed: 7}),
		3, Options{N: 3, RequestTimeout: time.Second})
	c := h.coords[0]
	if err := c.Put(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("c", []byte("old"), 1)}, 3); err != nil {
		t.Fatal(err)
	}
	reps := c.ReplicasFor("t", "r")
	divergeReplica(t, h, c, reps[2], "t", "r", "c", "new", 2)

	if _, err := c.Get(ctxT(t), "t", "r", []string{"c"}, 2, false); err != nil {
		t.Fatal(err)
	}
	// Whether the mismatching digest lands before quorum (fallback) or
	// after (background audit), the divergence must be detected and
	// the newer version propagated to every replica.
	waitFor(t, 2*time.Second, func() bool { return h.replicasHolding("t", "r", "c", "new") == 3 })
	if st := c.Stats(); st.DigestMismatches == 0 {
		t.Fatalf("stats = %+v, want the divergence recorded as a digest mismatch", st)
	}
}

func TestMultiGetBatchesRows(t *testing.T) {
	forEachFabric(t, func(t *testing.T, tr transport.Transport) {
		h := newHarness(t, tr, 5, Options{N: 3})
		c := h.coords[0]
		const rows = 8
		reads := make([]RowRead, 0, rows+1)
		for i := 0; i < rows; i++ {
			row := fmt.Sprintf("r%d", i)
			val := fmt.Sprintf("v%d", i)
			if err := c.Put(ctxT(t), "t", row, []model.ColumnUpdate{model.Update("c", []byte(val), 1)}, 3); err != nil {
				t.Fatal(err)
			}
			reads = append(reads, RowRead{Row: row, Columns: []string{"c"}})
		}
		reads = append(reads, RowRead{Row: "ghost", Columns: []string{"c"}})

		got, err := c.MultiGet(ctxT(t), "t", reads, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != rows+1 {
			t.Fatalf("got %d results, want %d", len(got), rows+1)
		}
		for i := 0; i < rows; i++ {
			want := fmt.Sprintf("v%d", i)
			if string(got[i].Cells[0].Value) != want {
				t.Fatalf("row %d = %v, want %q", i, got[i], want)
			}
		}
		if len(got[rows].Cells) != 1 || got[rows].Cells[0].Exists() || got[rows].Entries != nil {
			t.Fatalf("missing row = %v, want one never-written cell", got[rows])
		}
		st := c.Stats()
		if st.MultiGets != 1 || st.MultiGetRows != rows+1 {
			t.Fatalf("stats = %+v, want one MultiGet covering %d rows", st, rows+1)
		}
	})
}

func TestMultiGetQuorumFailure(t *testing.T) {
	forEachFabric(t, func(t *testing.T, tr transport.Transport) {
		h := newHarness(t, tr, 3, Options{N: 3, RequestTimeout: 100 * time.Millisecond, HintReplayInterval: -1})
		c := h.coords[0]
		if err := c.Put(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("c", []byte("v"), 1)}, 3); err != nil {
			t.Fatal(err)
		}
		reps := c.ReplicasFor("t", "r")
		for _, rep := range reps[:2] {
			h.trans.SetDown(rep, true)
		}
		if _, err := c.MultiGet(ctxT(t), "t", []RowRead{{Row: "r", Columns: []string{"c"}}}, 2); !errors.Is(err, ErrQuorumFailed) {
			t.Fatalf("err = %v, want ErrQuorumFailed", err)
		}
		// A single reachable replica still satisfies r=1.
		got, err := c.MultiGet(ctxT(t), "t", []RowRead{{Row: "r", Columns: []string{"c"}}}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if string(got[0].Cells[0].Value) != "v" {
			t.Fatalf("MultiGet r=1 = %v", got)
		}
	})
}

func TestMultiGetOverSimFabric(t *testing.T) {
	h := newHarness(t, transport.NewSim(transport.SimOptions{Latency: time.Millisecond, Seed: 11}),
		4, Options{N: 3, RequestTimeout: time.Second})
	c := h.coords[0]
	for i := 0; i < 4; i++ {
		row := fmt.Sprintf("r%d", i)
		if err := c.Put(ctxT(t), "t", row, []model.ColumnUpdate{model.Update("c", []byte(row), 1)}, 3); err != nil {
			t.Fatal(err)
		}
	}
	reads := []RowRead{{Row: "r0", AllColumns: true}, {Row: "r1", AllColumns: true}, {Row: "r2", AllColumns: true}, {Row: "r3", AllColumns: true}}
	got, err := c.MultiGet(ctxT(t), "t", reads, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range got {
		want := fmt.Sprintf("r%d", i)
		if len(row.Entries) != 1 || string(row.Entries[0].Key) != "c" || string(row.Entries[0].Cell.Value) != want || row.Cells != nil {
			t.Fatalf("row %d = %v, want column c = %q", i, row, want)
		}
	}
}

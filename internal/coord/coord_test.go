package coord

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"vstore/internal/model"
	"vstore/internal/node"
	"vstore/internal/ring"
	"vstore/internal/transport"
)

// forEachFabric runs fn on the three kinds of fabric a quorum round can
// find itself on: Direct, which completes calls on the caller's
// goroutine (transport.SyncCaller); a zero-latency Sim, which only has
// the asynchronous Call; and an event fabric (transport.EventCaller, the
// scripted one of round_test.go delivering every reply in the order
// sent). Tests under it assert what holds on all three.
func forEachFabric(t *testing.T, fn func(t *testing.T, tr transport.Transport)) {
	t.Run("sync", func(t *testing.T) { fn(t, transport.NewDirect()) })
	t.Run("async", func(t *testing.T) { fn(t, transport.NewSim(transport.SimOptions{Seed: 1})) })
	t.Run("event", func(t *testing.T) { fn(t, newScripted()) })
}

// harness wires nodes, a ring and coordinators over a fabric.
type harness struct {
	ring   *ring.Ring
	trans  transport.Transport
	nodes  []*node.Node
	coords []*Coordinator
	// arrived counts requests reaching gated replicas (gateReplica).
	arrived chan struct{}
}

func newHarness(t *testing.T, tr transport.Transport, nNodes int, opts Options) *harness {
	t.Helper()
	ids := make([]transport.NodeID, nNodes)
	for i := range ids {
		ids[i] = transport.NodeID(i)
	}
	h := &harness{ring: ring.New(ids, 32), trans: tr}
	for _, id := range ids {
		n := node.New(node.Options{ID: id})
		h.trans.Register(id, n)
		h.nodes = append(h.nodes, n)
		h.coords = append(h.coords, New(id, h.ring, h.trans, opts))
	}
	t.Cleanup(func() {
		for _, c := range h.coords {
			c.Close()
		}
	})
	return h
}

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// replicasHolding returns how many nodes locally hold the given cell
// value.
func (h *harness) replicasHolding(table, row, col, val string) int {
	count := 0
	for _, n := range h.nodes {
		for _, e := range n.TableSnapshot(table) {
			r, c, _ := model.DecodeKey(e.Key)
			if r == row && c == col && string(e.Cell.Value) == val && !e.Cell.Tombstone {
				count++
			}
		}
	}
	return count
}

func TestPutGetQuorum(t *testing.T) {
	forEachFabric(t, func(t *testing.T, tr transport.Transport) {
		h := newHarness(t, tr, 4, Options{N: 3})
		c := h.coords[0]
		if err := c.Put(ctxT(t), "t", "r1", []model.ColumnUpdate{model.Update("c", []byte("v"), 1)}, 2); err != nil {
			t.Fatal(err)
		}
		row, err := c.Get(ctxT(t), "t", "r1", []string{"c"}, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		if string(row[0].Value) != "v" {
			t.Fatalf("Get = %v", row)
		}
	})
}

func TestGetFromAnyCoordinator(t *testing.T) {
	forEachFabric(t, func(t *testing.T, tr transport.Transport) {
		h := newHarness(t, tr, 4, Options{N: 3})
		if err := h.coords[1].Put(ctxT(t), "t", "r1", []model.ColumnUpdate{model.Update("c", []byte("v"), 1)}, 3); err != nil {
			t.Fatal(err)
		}
		for i, c := range h.coords {
			row, err := c.Get(ctxT(t), "t", "r1", []string{"c"}, 2, false)
			if err != nil || string(row[0].Value) != "v" {
				t.Fatalf("coordinator %d: %v %v", i, row, err)
			}
		}
	})
}

func TestQuorumIntersectionReadsLatest(t *testing.T) {
	forEachFabric(t, func(t *testing.T, tr transport.Transport) {
		// Property: with W+R > N every read sees the latest write, no
		// matter which coordinator serves it.
		h := newHarness(t, tr, 5, Options{N: 3, DisableReadRepair: true})
		for i := 0; i < 50; i++ {
			w := 2
			r := 2 // W+R=4 > N=3
			key := fmt.Sprintf("row-%d", i)
			val := fmt.Sprintf("val-%d", i)
			writer := h.coords[i%len(h.coords)]
			reader := h.coords[(i+1)%len(h.coords)]
			if err := writer.Put(ctxT(t), "t", key, []model.ColumnUpdate{model.Update("c", []byte(val), int64(i+1))}, w); err != nil {
				t.Fatal(err)
			}
			row, err := reader.Get(ctxT(t), "t", key, []string{"c"}, r, false)
			if err != nil {
				t.Fatal(err)
			}
			if string(row[0].Value) != val {
				t.Fatalf("key %s: read %q want %q", key, row[0].Value, val)
			}
		}
	})
}

func TestGetMissingRow(t *testing.T) {
	forEachFabric(t, func(t *testing.T, tr transport.Transport) {
		h := newHarness(t, tr, 3, Options{N: 3})
		row, err := h.coords[0].Get(ctxT(t), "t", "ghost", []string{"c"}, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(row) != 1 || row[0].Exists() {
			t.Fatalf("missing row returned %v, want one never-written cell", row)
		}
	})
}

func TestPreReadCollectsVersions(t *testing.T) {
	forEachFabric(t, func(t *testing.T, tr transport.Transport) {
		h := newHarness(t, tr, 4, Options{N: 3})
		c := h.coords[0]
		// Seed the view-key column.
		if err := c.Put(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("vk", []byte("alice"), 1)}, 3); err != nil {
			t.Fatal(err)
		}
		cs, err := c.PutWithPreRead(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("vk", []byte("bob"), 2)}, 2, []string{"vk"})
		if err != nil {
			t.Fatal(err)
		}
		vc := cs.Of("vk")
		waitFor(t, 5*time.Second, vc.Complete)
		vs := vc.Versions()
		if len(vs) != 1 || string(vs[0].Value) != "alice" {
			t.Fatalf("versions = %v, want [alice]", vs)
		}
		if !vc.Complete() {
			t.Fatal("collector should be complete")
		}
	})
}

func TestPreReadSeesDivergentVersions(t *testing.T) {
	forEachFabric(t, func(t *testing.T, tr transport.Transport) {
		h := newHarness(t, tr, 3, Options{N: 3, DisableReadRepair: true})
		c := h.coords[0]
		// Write distinct versions to individual replicas directly, bypassing
		// the coordinator, to simulate divergence from concurrent updates.
		reps := c.ReplicasFor("t", "r")
		for i, rep := range reps {
			<-h.trans.Call(c.Self(), rep, transport.PutReq{
				Table:   "t",
				Row:     "r",
				Updates: []model.ColumnUpdate{model.Update("vk", []byte(fmt.Sprintf("v%d", i)), int64(i+1))},
			})
		}
		cs, err := c.PutWithPreRead(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("vk", []byte("final"), 100)}, 2, []string{"vk"})
		if err != nil {
			t.Fatal(err)
		}
		vc := cs.Of("vk")
		waitFor(t, 5*time.Second, vc.Complete)
		vs := vc.Versions()
		if len(vs) != len(reps) {
			t.Fatalf("collected %d versions, want %d: %v", len(vs), len(reps), vs)
		}
		// Newest first ordering.
		for i := 1; i < len(vs); i++ {
			if vs[i].Wins(vs[i-1]) {
				t.Fatalf("versions not newest-first: %v", vs)
			}
		}
	})
}

func TestWriteQuorumFailure(t *testing.T) {
	forEachFabric(t, func(t *testing.T, tr transport.Transport) {
		h := newHarness(t, tr, 3, Options{N: 3, RequestTimeout: 100 * time.Millisecond, HintReplayInterval: -1})
		c := h.coords[0]
		reps := c.ReplicasFor("t", "r")
		// Take down two replicas; W=3 must fail, W=1 must succeed.
		h.trans.SetDown(reps[0], true)
		h.trans.SetDown(reps[1], true)
		err := c.Put(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("c", []byte("v"), 1)}, 3)
		if !errors.Is(err, ErrQuorumFailed) {
			t.Fatalf("err = %v, want quorum failure", err)
		}
		if err := c.Put(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("c", []byte("v"), 2)}, 1); err != nil {
			t.Fatalf("W=1 with one live replica failed: %v", err)
		}
	})
}

func TestReadQuorumFailure(t *testing.T) {
	forEachFabric(t, func(t *testing.T, tr transport.Transport) {
		h := newHarness(t, tr, 3, Options{N: 3, RequestTimeout: 100 * time.Millisecond, HintReplayInterval: -1})
		c := h.coords[0]
		if err := c.Put(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("c", []byte("v"), 1)}, 3); err != nil {
			t.Fatal(err)
		}
		reps := c.ReplicasFor("t", "r")
		h.trans.SetDown(reps[0], true)
		h.trans.SetDown(reps[1], true)
		if _, err := c.Get(ctxT(t), "t", "r", []string{"c"}, 2, false); !errors.Is(err, ErrQuorumFailed) {
			t.Fatalf("err = %v, want quorum failure", err)
		}
		if _, err := c.Get(ctxT(t), "t", "r", []string{"c"}, 1, false); err != nil {
			t.Fatalf("R=1 with one live replica failed: %v", err)
		}
	})
}

func TestHintedHandoff(t *testing.T) {
	forEachFabric(t, func(t *testing.T, tr transport.Transport) {
		h := newHarness(t, tr, 3, Options{N: 3, RequestTimeout: 50 * time.Millisecond, HintReplayInterval: -1})
		c := h.coords[0]
		reps := c.ReplicasFor("t", "r")
		down := reps[2]
		h.trans.SetDown(down, true)
		if err := c.Put(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("c", []byte("v"), 1)}, 2); err != nil {
			t.Fatal(err)
		}
		// The write cannot reach the dead replica; a hint must be stored.
		waitFor(t, time.Second, func() bool { return c.PendingHints() == 1 })
		if got := h.replicasHolding("t", "r", "c", "v"); got != 2 {
			t.Fatalf("%d replicas hold the value, want 2", got)
		}
		// Node recovers; replay delivers the hint.
		h.trans.SetDown(down, false)
		c.ReplayHints()
		if got := h.replicasHolding("t", "r", "c", "v"); got != 3 {
			t.Fatalf("after replay %d replicas hold the value, want 3", got)
		}
		if c.PendingHints() != 0 {
			t.Fatalf("hints still pending: %d", c.PendingHints())
		}
		if c.Stats().HintsReplayed != 1 {
			t.Fatalf("stats = %+v", c.Stats())
		}
	})
}

func TestHintReplayRetriesWhileDown(t *testing.T) {
	forEachFabric(t, func(t *testing.T, tr transport.Transport) {
		h := newHarness(t, tr, 3, Options{N: 3, RequestTimeout: 50 * time.Millisecond, HintReplayInterval: -1})
		c := h.coords[0]
		reps := c.ReplicasFor("t", "r")
		h.trans.SetDown(reps[2], true)
		if err := c.Put(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("c", []byte("v"), 1)}, 2); err != nil {
			t.Fatal(err)
		}
		waitFor(t, time.Second, func() bool { return c.PendingHints() == 1 })
		c.ReplayHints() // target still down: hint must be requeued
		if c.PendingHints() != 1 {
			t.Fatalf("hint lost while target down: %d pending", c.PendingHints())
		}
	})
}

func TestReadRepair(t *testing.T) {
	forEachFabric(t, func(t *testing.T, tr transport.Transport) {
		h := newHarness(t, tr, 3, Options{N: 3, RequestTimeout: 200 * time.Millisecond})
		c := h.coords[0]
		reps := c.ReplicasFor("t", "r")
		// Write directly to two replicas only, leaving one stale.
		for _, rep := range reps[:2] {
			<-h.trans.Call(c.Self(), rep, transport.PutReq{
				Table:   "t",
				Row:     "r",
				Updates: []model.ColumnUpdate{model.Update("c", []byte("v"), 5)},
			})
		}
		if got := h.replicasHolding("t", "r", "c", "v"); got != 2 {
			t.Fatalf("precondition: %d replicas hold value", got)
		}
		// A full-fan-out read must trigger repair of the stale replica.
		if _, err := c.Get(ctxT(t), "t", "r", []string{"c"}, 3, false); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 2*time.Second, func() bool { return h.replicasHolding("t", "r", "c", "v") == 3 })
	})
}

func TestPutGetUnknownPlacement(t *testing.T) {
	forEachFabric(t, func(t *testing.T, tr transport.Transport) {
		rg := ring.New(nil, 8) // empty ring
		c := New(0, rg, tr, Options{N: 3, HintReplayInterval: -1})
		defer c.Close()
		if err := c.Put(ctxT(t), "t", "r", nil, 1); err == nil {
			t.Fatal("Put on empty ring succeeded")
		}
		if _, err := c.Get(ctxT(t), "t", "r", nil, 1, false); err == nil {
			t.Fatal("Get on empty ring succeeded")
		}
	})
}

func TestQuorumClamped(t *testing.T) {
	forEachFabric(t, func(t *testing.T, tr transport.Transport) {
		h := newHarness(t, tr, 2, Options{N: 3}) // only 2 nodes exist
		c := h.coords[0]
		// W larger than the replica count must clamp, not deadlock.
		if err := c.Put(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("c", []byte("v"), 1)}, 99); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get(ctxT(t), "t", "r", []string{"c"}, 99, false); err != nil {
			t.Fatal(err)
		}
	})
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not met within timeout")
}

func TestGetVersionsCollectsDistinct(t *testing.T) {
	forEachFabric(t, func(t *testing.T, tr transport.Transport) {
		h := newHarness(t, tr, 3, Options{N: 3, DisableReadRepair: true})
		c := h.coords[0]
		// Three replicas with three distinct values for the column.
		reps := c.ReplicasFor("t", "r")
		for i, rep := range reps {
			<-h.trans.Call(c.Self(), rep, transport.PutReq{
				Table:   "t",
				Row:     "r",
				Updates: []model.ColumnUpdate{model.Update("vk", []byte(fmt.Sprintf("v%d", i)), int64(i+1))},
			})
		}
		cs, err := c.GetVersions(ctxT(t), "t", "r", []string{"vk"}, 2)
		if err != nil {
			t.Fatal(err)
		}
		vc := cs.Of("vk")
		waitFor(t, 5*time.Second, vc.Complete)
		if got := len(vc.Versions()); got != 3 {
			t.Fatalf("collected %d versions, want 3: %v", got, vc.Versions())
		}
		if !vc.Complete() {
			t.Fatal("collector should be complete")
		}
	})
}

func TestGetVersionsAbsentColumn(t *testing.T) {
	forEachFabric(t, func(t *testing.T, tr transport.Transport) {
		h := newHarness(t, tr, 3, Options{N: 3})
		c := h.coords[0]
		if err := c.Put(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("other", []byte("x"), 1)}, 3); err != nil {
			t.Fatal(err)
		}
		cs, err := c.GetVersions(ctxT(t), "t", "r", []string{"vk"}, 2)
		if err != nil {
			t.Fatal(err)
		}
		vc := cs.Of("vk")
		waitFor(t, 5*time.Second, vc.Complete)
		vs := vc.Versions()
		// Every replica reports the null cell: one distinct version.
		if len(vs) != 1 || !vs[0].IsNull() {
			t.Fatalf("versions = %v, want a single null version", vs)
		}
	})
}

func TestGetVersionsQuorumFailure(t *testing.T) {
	forEachFabric(t, func(t *testing.T, tr transport.Transport) {
		h := newHarness(t, tr, 3, Options{N: 3, RequestTimeout: 100 * time.Millisecond, HintReplayInterval: -1})
		c := h.coords[0]
		reps := c.ReplicasFor("t", "r")
		h.trans.SetDown(reps[0], true)
		h.trans.SetDown(reps[1], true)
		if _, err := c.GetVersions(ctxT(t), "t", "r", []string{"vk"}, 2); !errors.Is(err, ErrQuorumFailed) {
			t.Fatalf("err = %v, want quorum failure", err)
		}
	})
}

func TestGetVersionsEmptyRing(t *testing.T) {
	forEachFabric(t, func(t *testing.T, tr transport.Transport) {
		rg := ring.New(nil, 8)
		c := New(0, rg, tr, Options{N: 3, HintReplayInterval: -1})
		defer c.Close()
		if _, err := c.GetVersions(ctxT(t), "t", "r", []string{"vk"}, 1); err == nil {
			t.Fatal("GetVersions on empty ring succeeded")
		}
	})
}

func TestVersionCollectorChangedSignal(t *testing.T) {
	forEachFabric(t, func(t *testing.T, tr transport.Transport) {
		h := newHarness(t, tr, 3, Options{N: 3, DisableReadRepair: true})
		c := h.coords[0]
		if err := c.Put(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("vk", []byte("a"), 1)}, 3); err != nil {
			t.Fatal(err)
		}
		cs, err := c.PutWithPreRead(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("vk", []byte("b"), 2)}, 1, []string{"vk"})
		if err != nil {
			t.Fatal(err)
		}
		vc := cs.Of("vk")
		// A notification fires (when versions grow or collection
		// completes) unless collection had already finished.
		changed := make(chan struct{})
		if vc.Notify(func() { close(changed) }) {
			select {
			case <-changed:
			case <-time.After(2 * time.Second):
				t.Fatal("Notify never fired")
			}
		} else if !vc.Complete() {
			t.Fatal("Notify refused on an incomplete collector")
		}
		waitFor(t, 5*time.Second, vc.Complete)
		if len(vc.Versions()) == 0 {
			t.Fatal("no versions collected")
		}
	})
}

func TestCloseIdempotentAndStopsBackground(t *testing.T) {
	forEachFabric(t, func(t *testing.T, tr transport.Transport) {
		h := newHarness(t, tr, 3, Options{N: 3})
		c := h.coords[0]
		if err := c.Put(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("c", []byte("v"), 1)}, 2); err != nil {
			t.Fatal(err)
		}
		c.Close()
		c.Close() // second close must not panic or deadlock
	})
}

func TestStatsCounters(t *testing.T) {
	forEachFabric(t, func(t *testing.T, tr transport.Transport) {
		h := newHarness(t, tr, 3, Options{N: 3})
		c := h.coords[0]
		c.Put(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("c", []byte("v"), 1)}, 2)
		c.Get(ctxT(t), "t", "r", []string{"c"}, 2, false)
		st := c.Stats()
		if st.Puts != 1 || st.Gets != 1 {
			t.Fatalf("stats = %+v", st)
		}
	})
}

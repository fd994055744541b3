package antientropy_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"vstore/internal/antientropy"
	"vstore/internal/cluster"
	"vstore/internal/model"
	"vstore/internal/transport"
)

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func newCluster(t *testing.T, nodes int) *cluster.Cluster {
	t.Helper()
	c := cluster.New(cluster.Config{
		Nodes:              nodes,
		N:                  3,
		HintReplayInterval: -1,
		DisableReadRepair:  true,
		RequestTimeout:     200 * time.Millisecond,
	})
	t.Cleanup(c.Close)
	if err := c.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	return c
}

// anyPairDiverged reports whether any replica pair disagrees over t.
func anyPairDiverged(t *testing.T, c *cluster.Cluster, table string) bool {
	t.Helper()
	for i := 0; i < c.Size(); i++ {
		for j := i + 1; j < c.Size(); j++ {
			d, err := antientropy.Diverged(c.Nodes[i], c.Nodes[j], table, 64)
			if err != nil {
				t.Fatal(err)
			}
			if d {
				return true
			}
		}
	}
	return false
}

func TestConvergenceAfterMissedWrites(t *testing.T) {
	c := newCluster(t, 4)
	co := c.Coordinator(0)
	// Take one node down; W=2 writes succeed but leave it stale.
	c.SetNodeDown(3, true)
	for i := 0; i < 100; i++ {
		err := co.Put(ctxT(t), "t", fmt.Sprintf("row-%d", i),
			[]model.ColumnUpdate{model.Update("c", []byte(fmt.Sprint(i)), int64(i+1))}, 2)
		if err != nil {
			t.Fatal(err)
		}
	}
	c.SetNodeDown(3, false)
	if !anyPairDiverged(t, c, "t") {
		t.Fatal("precondition: replicas should have diverged")
	}
	c.RunAntiEntropyRound()
	if anyPairDiverged(t, c, "t") {
		t.Fatal("replicas still diverged after anti-entropy round")
	}
	// And the recovered node serves correct data with R=1 reads
	// coordinated by itself.
	row, err := c.Coordinator(3).Get(ctxT(t), "t", "row-42", []string{"c"}, 3, false)
	if err != nil || string(row[0].Value) != "42" {
		t.Fatalf("read after convergence: %v %v", row, err)
	}
}

func TestConvergencePropagatesTombstones(t *testing.T) {
	c := newCluster(t, 4)
	co := c.Coordinator(0)
	if err := co.Put(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("c", []byte("v"), 1)}, 3); err != nil {
		t.Fatal(err)
	}
	c.SetNodeDown(2, true)
	if err := co.Put(ctxT(t), "t", "r", []model.ColumnUpdate{model.Deletion("c", 2)}, 2); err != nil {
		t.Fatal(err)
	}
	c.SetNodeDown(2, false)
	c.RunAntiEntropyRound()
	if anyPairDiverged(t, c, "t") {
		t.Fatal("diverged after tombstone sync")
	}
	row, err := c.Coordinator(2).Get(ctxT(t), "t", "r", []string{"c"}, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if cell := row[0]; !cell.IsNull() {
		t.Fatalf("deleted cell resurrected: %v", cell)
	}
}

func TestTwoWayExchange(t *testing.T) {
	// Divergence in both directions: node A missed some writes, node B
	// missed others. One round between them must fix both.
	c := newCluster(t, 4)
	co := c.Coordinator(0)
	c.SetNodeDown(1, true)
	for i := 0; i < 20; i++ {
		if err := co.Put(ctxT(t), "t", fmt.Sprintf("a-%d", i), []model.ColumnUpdate{model.Update("c", []byte("x"), 1)}, 2); err != nil {
			t.Fatal(err)
		}
	}
	c.SetNodeDown(1, false)
	c.SetNodeDown(2, true)
	for i := 0; i < 20; i++ {
		if err := co.Put(ctxT(t), "t", fmt.Sprintf("b-%d", i), []model.ColumnUpdate{model.Update("c", []byte("y"), 1)}, 2); err != nil {
			t.Fatal(err)
		}
	}
	c.SetNodeDown(2, false)
	c.RunAntiEntropyRound()
	if anyPairDiverged(t, c, "t") {
		t.Fatal("divergence survived two-way exchange")
	}
}

func TestSyncSkipsWhenIdentical(t *testing.T) {
	c := newCluster(t, 4)
	co := c.Coordinator(0)
	for i := 0; i < 30; i++ {
		if err := co.Put(ctxT(t), "t", fmt.Sprintf("row-%d", i),
			[]model.ColumnUpdate{model.Update("c", []byte("v"), 1)}, c.N()); err != nil {
			t.Fatal(err)
		}
	}
	c.RunAntiEntropyRound()
	var pulled int64
	for _, a := range c.Agents {
		pulled += a.Stats().EntriesPulled
	}
	if pulled != 0 {
		t.Fatalf("identical replicas exchanged %d entries", pulled)
	}
}

func TestSyncErrorCounted(t *testing.T) {
	c := newCluster(t, 4)
	if err := c.Coordinator(0).Put(ctxT(t), "t", "r", []model.ColumnUpdate{model.Update("c", []byte("v"), 1)}, 2); err != nil {
		t.Fatal(err)
	}
	c.SetNodeDown(1, true)
	if err := c.Agents[0].SyncTable("t", transport.NodeID(1)); err == nil {
		t.Fatal("sync with dead peer succeeded")
	}
	c.Agents[0].RunRound()
	if c.Agents[0].Stats().Errors == 0 {
		t.Fatal("round against dead peer recorded no errors")
	}
}

func TestBackgroundLoopConverges(t *testing.T) {
	c := cluster.New(cluster.Config{
		Nodes:               4,
		N:                   3,
		HintReplayInterval:  -1,
		DisableReadRepair:   true,
		RequestTimeout:      200 * time.Millisecond,
		AntiEntropyInterval: 10 * time.Millisecond,
	})
	t.Cleanup(c.Close)
	if err := c.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	c.SetNodeDown(3, true)
	co := c.Coordinator(0)
	for i := 0; i < 30; i++ {
		if err := co.Put(ctxT(t), "t", fmt.Sprintf("row-%d", i),
			[]model.ColumnUpdate{model.Update("c", []byte("v"), 1)}, 2); err != nil {
			t.Fatal(err)
		}
	}
	c.SetNodeDown(3, false)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if !anyPairDiverged(t, c, "t") {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("background anti-entropy never converged")
}

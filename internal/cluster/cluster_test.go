package cluster_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"vstore/internal/cluster"
	"vstore/internal/model"
	"vstore/internal/transport"
)

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestDefaults(t *testing.T) {
	c := cluster.New(cluster.Config{})
	defer c.Close()
	if c.Size() != 4 || c.N() != 3 {
		t.Fatalf("defaults: size=%d N=%d", c.Size(), c.N())
	}
}

func TestReplicationClampedToNodes(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 2, N: 5})
	defer c.Close()
	if c.N() != 2 {
		t.Fatalf("N=%d, want clamp to 2", c.N())
	}
}

func TestTableRegistry(t *testing.T) {
	c := cluster.New(cluster.Config{})
	defer c.Close()
	if err := c.CreateTable(""); err == nil {
		t.Fatal("empty table name accepted")
	}
	if err := c.CreateTable("t1"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("t1"); err == nil {
		t.Fatal("duplicate accepted")
	}
	c.CreateTable("t0")
	got := c.Tables()
	if len(got) != 2 || got[0] != "t0" || got[1] != "t1" {
		t.Fatalf("Tables = %v", got)
	}
	if !c.HasTable("t1") || c.HasTable("nope") {
		t.Fatal("HasTable wrong")
	}
}

func TestCreateIndexUnknownTable(t *testing.T) {
	c := cluster.New(cluster.Config{})
	defer c.Close()
	if err := c.CreateIndex("ghost", "col"); err == nil {
		t.Fatal("index on unknown table accepted")
	}
}

func TestCoordinatorWraps(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 3})
	defer c.Close()
	if c.Coordinator(0) != c.Coordinator(3) {
		t.Fatal("coordinator index should wrap modulo cluster size")
	}
}

func TestDataFlowsAcrossNodes(t *testing.T) {
	c := cluster.New(cluster.Config{})
	defer c.Close()
	c.CreateTable("t")
	for i := 0; i < 50; i++ {
		co := c.Coordinator(i % c.Size())
		err := co.Put(ctxT(t), "t", fmt.Sprintf("k%d", i),
			[]model.ColumnUpdate{model.Update("c", []byte(fmt.Sprint(i)), int64(i+1))}, 2)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Every node should hold some replicas with 50 keys and N=3.
	for i, n := range c.Nodes {
		if len(n.TableSnapshot("t")) == 0 {
			t.Fatalf("node %d holds no data; placement broken", i)
		}
	}
	// All rows readable from every coordinator.
	for i := 0; i < c.Size(); i++ {
		row, err := c.Coordinator(i).Get(ctxT(t), "t", "k17", []string{"c"}, 2, false)
		if err != nil || string(row[0].Value) != "17" {
			t.Fatalf("coordinator %d: %v %v", i, row, err)
		}
	}
}

func TestNodeDownAndRecovery(t *testing.T) {
	c := cluster.New(cluster.Config{RequestTimeout: 200 * time.Millisecond, HintReplayInterval: -1})
	defer c.Close()
	c.CreateTable("t")
	c.SetNodeDown(transport.NodeID(1), true)
	err := c.Coordinator(0).Put(ctxT(t), "t", "k",
		[]model.ColumnUpdate{model.Update("c", []byte("v"), 1)}, 2)
	if err != nil {
		t.Fatalf("write with one node down failed: %v", err)
	}
	c.SetNodeDown(transport.NodeID(1), false)
	c.RunAntiEntropyRound()
	row, err := c.Coordinator(1).Get(ctxT(t), "t", "k", []string{"c"}, 3, false)
	if err != nil || string(row[0].Value) != "v" {
		t.Fatalf("after recovery: %v %v", row, err)
	}
}

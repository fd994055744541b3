package vstore

import (
	"context"
	"fmt"
	"testing"
	"time"

	"vstore/internal/model"
)

// TestSnapshotRestoreSeedsDots: after SaveSnapshotTo and Open, each
// coordinator's next write dot lies above every dot the restored cells
// carry for that node. Re-issuing one would name two writes with one
// dot.
func TestSnapshotRestoreSeedsDots(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := db.Client(i%db.Nodes()).Put(ctx, "t", fmt.Sprintf("r%d", i), Values{"c": "v"}); err != nil {
			t.Fatal(err)
		}
	}
	b := MemBackend()
	if err := db.SaveSnapshotTo(b); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := Open(Config{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	// dotOf scans every replica for the dot of row's column c.
	restored := map[uint32]uint64{}
	dotOf := func(row string) (node uint32, seq uint64) {
		for _, n := range db2.cluster.Nodes {
			for _, e := range n.TableSnapshot("t") {
				if r, _, err := model.DecodeKey(e.Key); err == nil && r == row {
					return e.Cell.Dot.Node, e.Cell.Dot.Seq
				}
			}
		}
		t.Fatalf("row %s on no replica", row)
		return 0, 0
	}
	for i := 0; i < 20; i++ {
		node, seq := dotOf(fmt.Sprintf("r%d", i))
		if seq > restored[node] {
			restored[node] = seq
		}
	}
	for i := 0; i < db2.Nodes(); i++ {
		row := fmt.Sprintf("new%d", i)
		if err := db2.Client(i).Put(ctx, "t", row, Values{"c": "w"}); err != nil {
			t.Fatal(err)
		}
		node, seq := dotOf(row)
		if node != uint32(i) || restored[node] == 0 || seq <= restored[node] {
			t.Fatalf("coordinator %d stamped dot (%d, %d); restored cells carry up to (%d, %d)",
				i, node, seq, i, restored[uint32(i)])
		}
	}
}

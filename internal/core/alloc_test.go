package core_test

import (
	"context"
	"fmt"
	"testing"

	"vstore/internal/core"
	"vstore/internal/model"
	"vstore/internal/race"
)

// TestGetViewAllocations pins what a view read of one live row costs on
// a 3-node cluster over the direct fabric, past the first read of the
// key: the whole-row replies travel as entries aliasing the replicas'
// storage, so what is left is the coordinator's round, the boxed
// replies and the ViewRow with its cells.
func TestGetViewAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	h := newHarness(t, core.Options{}, 3)
	for _, table := range []string{"b", "v"} {
		if err := h.c.CreateTable(table); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.reg.Define(core.Def{Name: "v", Base: "b", ViewKeyColumn: "k", Materialized: []string{"m"}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		updates := []model.ColumnUpdate{
			model.Update("k", []byte(fmt.Sprintf("key-%d", i%2)), int64(10+i)),
			model.Update("m", []byte("payload"), int64(10+i)),
		}
		if err := h.mgrs[0].Put(ctxT(t), "b", fmt.Sprintf("row-%d", i), updates, 3, nil); err != nil {
			t.Fatal(err)
		}
	}
	h.quiesce(t)
	ctx := context.Background()
	read := func() {
		rows, err := h.mgrs[1].GetView(ctx, "v", "key-0", nil)
		if err != nil || len(rows) != 2 {
			t.Fatalf("GetView = %v, %v; want two rows", rows, err)
		}
	}
	read()
	const pinned = 15
	if got := testing.AllocsPerRun(200, read); got > pinned {
		t.Errorf("GetView allocates %v times, want at most %d", got, pinned)
	}
}

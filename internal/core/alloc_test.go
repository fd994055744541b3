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

// TestViewKeyPutAllocations pins what one view-key Put costs on a
// 3-node cluster over the direct fabric, its propagation included
// (SyncPropagation): each Put moves its row to a new view key, so every
// propagation walks one hop to the live row and promotes — create,
// carrying the cells copied from that row, redirect, publish — with no
// read of the base row. The tasks are built once, a
// put that asks no pre-read has no collectors and named reads carry
// cells aligned with their columns, so what is left is the protocol's
// own requests, replies and propagation state.
func TestViewKeyPutAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	h := newHarness(t, core.Options{SyncPropagation: true}, 3)
	for _, table := range []string{"b", "v"} {
		if err := h.c.CreateTable(table); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.reg.Define(core.Def{Name: "v", Base: "b", ViewKeyColumn: "k", Materialized: []string{"m"}}); err != nil {
		t.Fatal(err)
	}
	const rows, runs = 64, 640
	// puts[i] moves row i%rows to a key of its own; the first round
	// creates the rows' view rows, the later ones supersede them.
	puts := make([][]model.ColumnUpdate, rows+runs+1)
	for i := range puts {
		puts[i] = []model.ColumnUpdate{
			model.Update("k", []byte(fmt.Sprintf("key-%d", i)), int64(10+i)),
			model.Update("m", []byte("payload"), int64(10+i)),
		}
	}
	names := make([]string, rows)
	for i := range names {
		names[i] = fmt.Sprintf("row-%d", i)
	}
	ctx := context.Background()
	i := 0
	put := func() {
		if err := h.mgrs[0].Put(ctx, "b", names[i%rows], puts[i], 2, nil); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for i < rows {
		put()
	}
	const pinned = 59
	if got := testing.AllocsPerRun(runs, put); got > pinned {
		t.Errorf("a view-key Put and its propagation allocate %v times, want at most %d", got, pinned)
	}
	if n := h.mgrs[0].Stats().Propagations.Load(); n != int64(i) {
		t.Fatalf("%d propagations completed for %d puts", n, i)
	}
	last := string(puts[i-1][0].Cell.Value)
	if got := getView(t, h.mgrs[1], "v", last); len(got) != 1 || got[0].BaseKey != names[(i-1)%rows] {
		t.Fatalf("view under %s = %+v, want the row that moved there", last, got)
	}
}

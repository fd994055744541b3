package node

import (
	"fmt"
	"testing"

	"vstore/internal/model"
	"vstore/internal/race"
	"vstore/internal/transport"
)

// TestPutAllocations pins what one replica put costs a memory-mode node
// on a table without indexes, once its cells exist: the request
// bookkeeping (worker slot, counter, catalog lookup, row lock) and the
// store write allocate nothing, so what is left is what the reply is
// made of.
func TestPutAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	n := New(Options{ID: 1})
	val := []byte("sec-00000001")
	rows := make([]string, 1024)
	for i := range rows {
		rows[i] = fmt.Sprintf("data-%08d", i)
	}
	reqs := func(versionsOf []string) []transport.Request {
		out := make([]transport.Request, len(rows))
		for i, row := range rows {
			updates := []model.ColumnUpdate{model.Update("skey", val, 1), model.Update("payload", val, 1)}
			out[i] = transport.PutReq{Table: "data", Row: row, Updates: updates, ReturnVersionsOf: versionsOf}
		}
		return out
	}
	measure := func(reqs []transport.Request) float64 {
		i := 0
		return testing.AllocsPerRun(len(reqs)-1, func() {
			if _, err := n.HandleRequest(0, reqs[i]); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	measure(reqs(nil)) // create the cells
	// A put without a pre-read, a client's on a table without views or a
	// view-maintenance one: blind, empty reply.
	if got := measure(reqs(nil)); got > 0 {
		t.Errorf("blind put allocates %v times, want 0", got)
	}
	// A client put on a table with a view: the pre-read's reply is one
	// cell, its slice and the boxed reply that carries it. The put above
	// returns a nil slice, which boxes for free.
	if got := measure(reqs([]string{"skey"})); got > 2 {
		t.Errorf("put with a pre-read allocates %v times, want at most 2 (the pre-image slice and the boxed reply)", got)
	}
	if got := n.RequestCounts()["put"]; got < int64(3*(len(rows)-1)) {
		t.Errorf("put counter = %d, want every request counted", got)
	}
}

// TestGetDigestAllocations pins what a digest read of named columns or
// of a whole row costs a memory-mode node: the store digests the cells
// where they lie, so the boxed reply is the one allocation left.
func TestGetDigestAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	n := New(Options{ID: 1})
	cell := model.Cell{Value: []byte("sec-00000001"), TS: 1}
	if _, err := n.HandleRequest(0, transport.PutReq{Table: "data", Row: "data-00000001",
		Updates: []model.ColumnUpdate{{Column: "skey", Cell: cell}}}); err != nil {
		t.Fatal(err)
	}
	for _, req := range []transport.Request{
		transport.GetDigestReq{Table: "data", Row: "data-00000001", Columns: []string{"skey", "payload"}},
		transport.GetDigestReq{Table: "data", Row: "data-00000001", AllColumns: true},
	} {
		if got := testing.AllocsPerRun(100, func() {
			if _, err := n.HandleRequest(0, req); err != nil {
				t.Fatal(err)
			}
		}); got > 1 {
			t.Errorf("digest read %+v allocates %v times, want 1 (the boxed reply)", req, got)
		}
	}
}

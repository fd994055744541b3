package coord

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"vstore/internal/model"
	"vstore/internal/transport"
)

// The map merge a read of named columns made before replies became
// cells aligned with their columns: each replica answered a map with
// one entry per column asked (never-written ones padded with NullCell),
// the full read merged the maps with mapMergeRow, the digest read
// compacted the full reply with mapCompactRow, and repair compared each
// reply to the merge by column name.

func mapCompactRow(r model.Row) model.Row {
	for _, pad := range r {
		if pad.Exists() {
			continue
		}
		out := make(model.Row, len(r))
		for col, cell := range r {
			if cell.Exists() {
				out[col] = cell
			}
		}
		return out
	}
	return r
}

func mapMergeRow(dst, src model.Row) {
	for col, cell := range src {
		if !cell.Exists() {
			continue
		}
		if old, ok := dst[col]; ok {
			dst[col] = model.Merge(old, cell)
		} else {
			dst[col] = cell
		}
	}
}

func mapRepair(row string, merged, seen model.Row) []model.Entry {
	var fix []model.Entry
	for col, win := range merged {
		if have, ok := seen[col]; !ok || win.Wins(have) {
			fix = append(fix, model.Entry{Key: model.EncodeKey(row, col), Cell: win})
		}
	}
	slices.SortFunc(fix, func(a, b model.Entry) int { return bytes.Compare(a.Key, b.Key) })
	return fix
}

// TestAlignedReadMatchesMapMerge runs quorum reads of named columns over
// random replica states — never-written columns, tombstones, a column
// asked twice, and one replica that missed writes or took others — and
// checks them against the map merge they replaced:
// the same winner at every position (NullCell where the map had no
// entry), the same repair pushes in the same order, and every replica's
// digest of its reply equal to the store's DigestColumns.
func TestAlignedReadMatchesMapMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	pool := []string{"a", "b", "c", "skey", "", "long-column-name-over-32-bytes-0"}
	cell := func() model.Cell {
		c := model.Cell{Value: []byte(fmt.Sprintf("v%d", rng.Intn(4))), TS: int64(1 + rng.Intn(6))}
		if rng.Intn(4) == 0 {
			c = model.Cell{TS: c.TS, Tombstone: true}
		}
		return c
	}
	diverged := 0
	for trial := 0; trial < 200; trial++ {
		h := newHarness(t, transport.NewDirect(), 3, Options{N: 3, HintReplayInterval: -1})
		c := h.coords[rng.Intn(3)]
		row := fmt.Sprintf("r%d", trial)
		// Every replica holds the common cells, but one of them skips some
		// and takes cells of its own for others.
		odd := rng.Intn(3)
		for _, col := range pool[:len(pool)-1] { // the last column is never written
			if rng.Intn(4) == 0 {
				continue
			}
			common := cell()
			for i, n := range h.nodes {
				writes := []model.Cell{common}
				if i == odd {
					switch rng.Intn(4) {
					case 0:
						writes = nil
					case 1:
						writes = append(writes, cell())
					}
				}
				for _, w := range writes {
					if _, err := n.HandleRequest(0, transport.ApplyEntriesReq{Table: "t",
						Entries: []model.Entry{{Key: model.EncodeKey(row, col), Cell: w}}}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		cols := make([]string, 1+rng.Intn(5))
		for i := range cols {
			cols[i] = pool[rng.Intn(len(pool))]
		}
		cols = append(cols, cols[rng.Intn(len(cols))]) // a column asked twice

		// What each replica answers, as cells and as the map it once built.
		replies := map[transport.NodeID]model.Row{}
		for _, n := range h.nodes {
			resp, err := n.HandleRequest(0, transport.GetReq{Table: "t", Row: row, Columns: cols})
			if err != nil {
				t.Fatal(err)
			}
			cells := resp.(transport.GetResp).Cells
			m := model.Row{}
			for i, col := range cols {
				m[col] = cells[i]
			}
			replies[n.ID()] = m
			dresp, err := n.HandleRequest(0, transport.GetDigestReq{Table: "t", Row: row, Columns: cols})
			if err != nil {
				t.Fatal(err)
			}
			want := dresp.(transport.GetDigestResp).Digest
			if got := model.DigestCells(cols, cells); got != want {
				t.Fatalf("trial %d: node %d: DigestCells = %#x, DigestColumns = %#x", trial, n.ID(), got, want)
			}
			if got := model.RowDigest(mapCompactRow(m)); got != want {
				t.Fatalf("trial %d: node %d: digest of the compacted map = %#x, DigestColumns = %#x", trial, n.ID(), got, want)
			}
		}

		// The map read: the full reply alone when every digest agrees,
		// else the merge of every reply, each replica repaired in node
		// order.
		var want model.Row
		var wantPushes [][]model.Entry
		var wantTo []transport.NodeID
		agree := true
		for _, m := range replies {
			agree = agree && model.RowDigest(m) == model.RowDigest(replies[c.Self()])
		}
		if agree {
			want = mapCompactRow(replies[c.Self()])
		} else {
			diverged++
			want = model.Row{}
			for _, id := range c.ReplicasFor("t", row) {
				mapMergeRow(want, replies[id])
			}
			for _, id := range []transport.NodeID{0, 1, 2} {
				if fix := mapRepair(row, want, replies[id]); len(fix) > 0 {
					wantTo, wantPushes = append(wantTo, id), append(wantPushes, fix)
				}
			}
		}

		log := h.recordApplies()
		got, err := c.Get(ctxT(t), "t", row, cols, 3, false)
		if err != nil {
			t.Fatal(err)
		}
		c.Close() // waits out the repair pushes
		if len(got) != len(cols) {
			t.Fatalf("trial %d: %d cells for %d columns", trial, len(got), len(cols))
		}
		for i, col := range cols {
			w, ok := want[col]
			if !ok {
				w = model.NullCell
			}
			if !reflect.DeepEqual(got[i], w) {
				t.Fatalf("trial %d: column %d (%q) = %v, the map merge has %v", trial, i, col, got[i], w)
			}
		}
		if to := log.arrived(); !slices.Equal(to, wantTo) || !reflect.DeepEqual(log.entries, wantPushes) {
			t.Fatalf("trial %d: repairs %v %v, the map merge pushes %v %v", trial, to, log.entries, wantTo, wantPushes)
		}
	}
	if diverged < 50 {
		t.Fatalf("only %d of 200 trials diverged: the fallback and its repairs are barely exercised", diverged)
	}
}

package main

import (
	"context"
	"fmt"
	"io"

	"vstore"
)

// Schema of every workload: the paper's single table with a unique
// secondary-key attribute and a payload, and one view keyed by the
// secondary key that materializes the payload.
const (
	baseTable  = "data"
	viewName   = "bysec"
	keyCol     = "skey"
	payloadCol = "payload"
	// clients is the closed loop's width. Client i owns the base keys
	// k with k%clients == i and is the only writer of those rows, so
	// the checker always knows each row's last acknowledged view key.
	clients = 2
)

var viewDef = vstore.ViewDef{Name: viewName, Base: baseTable, ViewKey: keyCol, Materialized: []string{payloadCol}}

// sec is the view key with the given id. Row k is loaded under sec(k);
// every later Put moves it to a fresh id no row has used.
func sec(id int) string { return fmt.Sprintf("sec-%08d", id) }

// dataset holds the generated inputs, formatted once so the timed
// loops hand the store ready strings.
type dataset struct {
	rows     int
	keys     []string // base keys, data-%08d
	secs     []string // initial view keys, sec(k)
	payloads []string // 64 bytes each
}

func newDataset(rows int) *dataset {
	ds := &dataset{rows: rows, keys: make([]string, rows), secs: make([]string, rows), payloads: make([]string, rows)}
	for k := 0; k < rows; k++ {
		ds.keys[k] = fmt.Sprintf("data-%08d", k)
		ds.secs[k] = sec(k)
		ds.payloads[k] = fmt.Sprintf("payload-%056d", k)
	}
	return ds
}

// oracle is the checker's expectation: for every base row, the id of
// the view key its last acknowledged Put wrote and the id before that.
// Each client touches only the entries of the rows it owns, so the
// oracle needs no lock.
type oracle struct {
	ds      *dataset
	cur     []int32
	prev    []int32 // -1: the row never had another view key
	touched []bool
}

func newOracle(ds *dataset) *oracle {
	m := &oracle{ds: ds, cur: make([]int32, ds.rows), prev: make([]int32, ds.rows), touched: make([]bool, ds.rows)}
	for k := range m.cur {
		m.cur[k] = int32(k)
		m.prev[k] = -1
	}
	return m
}

// ack records that a Put moving row k to view key id was acknowledged.
func (m *oracle) ack(k, id int) {
	m.prev[k] = m.cur[k]
	m.cur[k] = int32(id)
	m.touched[k] = true
}

// curSec is the view key row k is expected under.
func (m *oracle) curSec(k int) string {
	if int(m.cur[k]) == k {
		return m.ds.secs[k]
	}
	return sec(int(m.cur[k]))
}

// isRow reports whether a GetView result is exactly row k with its
// payload.
func (m *oracle) isRow(rows []vstore.ViewRow, k int) bool {
	return len(rows) == 1 && rows[0].BaseKey == m.ds.keys[k] &&
		string(rows[0].Columns[payloadCol].Value) == m.ds.payloads[k]
}

// tally counts operations the benchmark issued and those that failed:
// an error, a wrong result, or a dropped propagation.
type tally struct {
	attempted, failed int
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// verifyStride is the sampling step over rows no Put touched; touched
// rows are always verified.
const verifyStride = 16

// verify checks a quiesced view against the model through one client:
// every touched row (and every verifyStride-th untouched one) must be
// found under its last view key with its payload, must be absent under
// its previous view key, and must carry the last view key in the base
// table. view names the view to read; a backfilled second view passes
// its own name. The first few mismatches are described on w.
func (m *oracle) verify(ctx context.Context, cl *vstore.Client, view string, w io.Writer) tally {
	var t tally
	complain := func(format string, args ...any) {
		t.failed++
		if t.failed <= 5 {
			fmt.Fprintf(w, "verify %s: "+format+"\n", append([]any{view}, args...)...)
		}
	}
	for k := 0; k < m.ds.rows; k++ {
		if !m.touched[k] && k%verifyStride != 0 {
			continue
		}
		want := m.curSec(k)
		t.attempted++
		rows, err := cl.GetView(ctx, view, want)
		if err != nil {
			complain("GetView(%s): %v", want, err)
		} else if !m.isRow(rows, k) {
			complain("row %s not found under %s: got %d rows", m.ds.keys[k], want, len(rows))
		}
		if m.prev[k] >= 0 {
			old := sec(int(m.prev[k]))
			t.attempted++
			rows, err := cl.GetView(ctx, view, old)
			if err != nil {
				complain("GetView(%s): %v", old, err)
			} else if len(rows) != 0 {
				complain("row %s still visible under its previous key %s", m.ds.keys[k], old)
			}
		}
		t.attempted++
		row, err := cl.Get(ctx, baseTable, m.ds.keys[k], vstore.WithColumns(keyCol))
		if err != nil {
			complain("Get(%s): %v", m.ds.keys[k], err)
		} else if string(row[keyCol].Value) != want {
			complain("base row %s has %s=%q, want %q", m.ds.keys[k], keyCol, row[keyCol].Value, want)
		}
	}
	return t
}

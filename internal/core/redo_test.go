package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"vstore/internal/model"
)

// Protocol-level regression for interrupted promotions: the shared
// propagation round runs against a fake Port that refuses the k-th
// write of a "new row wins" sequence (create with the copied cells /
// redirect / publish), a second propagation and a reader then run over
// the wreckage, and the interrupted update is retried the way the retry
// loop or intent replay would. Before redo-safe promotion lived in this
// package, failing any write after the create left a self-pointing row
// nothing could tell from the live one (double-live rows, severed
// chains).

// fakePort is a single-copy store — every read is a perfect quorum
// read — that can fail one chosen view-table write.
type fakePort struct {
	t      *testing.T
	tables map[string]map[string]model.Row
	// failIn, when positive, fails the failIn-th write of the next
	// promotion of view key failKey, counted from its create step (the
	// first put that makes failKey point at itself).
	failKey  string
	failIn   int
	counting bool
	// reads counts Get and MultiGet calls, writes Put calls.
	reads, writes int
}

var errInjected = errors.New("injected write-quorum failure")

func (f *fakePort) row(table, row string) model.Row {
	if f.tables[table] == nil {
		f.tables[table] = map[string]model.Row{}
	}
	if f.tables[table][row] == nil {
		f.tables[table][row] = model.Row{}
	}
	return f.tables[table][row]
}

func (f *fakePort) Get(_ context.Context, table, row string, cols []string) ([]model.Cell, error) {
	f.reads++
	return f.read(table, row, cols), nil
}

// read returns the row's cells of cols, aligned with them, as a quorum
// read does.
func (f *fakePort) read(table, row string, cols []string) []model.Cell {
	out := make([]model.Cell, len(cols))
	for i, c := range cols {
		out[i] = cellIn(f.row(table, row), c)
	}
	return out
}

// cellIn reads one cell of a stored row; a never-written one is
// model.NullCell.
func cellIn(row model.Row, col string) model.Cell {
	if c, ok := row[col]; ok {
		return c
	}
	return model.NullCell
}

func (f *fakePort) MultiGet(_ context.Context, table string, rows, cols []string) ([][]model.Cell, error) {
	f.reads++
	out := make([][]model.Cell, len(rows))
	for i, r := range rows {
		out[i] = f.read(table, r, cols)
	}
	return out, nil
}

func (f *fakePort) Put(_ context.Context, table, row string, updates []model.ColumnUpdate) error {
	f.writes++
	if f.failIn > 0 {
		for _, u := range updates {
			_, col, _ := model.Unqualify(u.Column)
			f.counting = f.counting || (col == ColNext && row == f.failKey && string(u.Cell.Value) == row)
		}
		if f.counting {
			if f.failIn--; f.failIn == 0 {
				f.counting = false
				return errInjected
			}
		}
	}
	// The invariant helping rests on: a pointer into an unpublished row
	// is only ever written by that row's own promotion (its redirect,
	// from the origin it recorded). Stale inserts and path compression
	// must target published rows, or a ghost gets spliced into chains.
	for _, u := range updates {
		stored, col, _ := model.Unqualify(u.Column)
		if target := string(u.Cell.Value); col == ColNext && target != row {
			cells := f.row(table, target)
			next, ready := cells[model.Qualify(stored, ColNext)], cells[model.Qualify(stored, ColReady)]
			published := string(next.Value) == target && !ready.IsNull() && ready.TS >= next.TS
			origin := string(cells[model.Qualify(stored, ColPrev)].Value)
			if origin == "" {
				origin = nullRowKey(stored)
			}
			if !published && row != origin {
				f.t.Errorf("pointer %q -> %q targets an unpublished row whose origin is %q", row, target, origin)
			}
		}
	}
	dst := f.row(table, row)
	for _, u := range updates {
		dst[u.Column] = model.Merge(cellIn(dst, u.Column), u.Cell)
	}
	return nil
}

func (f *fakePort) Serialize(string, bool) func() { return func() {} }

// staticPool is a complete guess pool.
type staticPool []model.Cell

func (p staticPool) Versions() []model.Cell { return p }
func (p staticPool) Complete() bool         { return true }

// The rig's view "v" maintains base row "r" of table "b": view key "k",
// one materialized column "m".
const rigRow = "r"

func vkAt(key string, ts int64) BaseUpdate {
	return BaseUpdate{BaseKey: rigRow, Column: "k", Cell: model.Cell{Value: []byte(key), TS: ts}}
}

func delAt(ts int64) BaseUpdate {
	return BaseUpdate{BaseKey: rigRow, Column: "k", Cell: model.Cell{Tombstone: true, TS: ts}}
}

func matAt(val string, ts int64) BaseUpdate {
	return BaseUpdate{BaseKey: rigRow, Column: "m", Cell: model.Cell{Value: []byte(val), TS: ts}}
}

// rig runs propagation rounds for one view over a fakePort.
type rig struct {
	t     *testing.T
	def   *Def
	port  *fakePort
	stats Stats
	round Round
	acked []BaseUpdate
}

func newRig(t *testing.T) *rig {
	g := &rig{
		t:    t,
		def:  &Def{Name: "v", Base: "b", ViewKeyColumn: "k", Materialized: []string{"m"}},
		port: &fakePort{t: t, tables: map[string]map[string]model.Row{}},
	}
	g.round = Round{Port: g.port, Stats: &g.stats, Obs: NewViewObs(), MaxChainHops: 64, PathCompression: true}
	return g
}

// ack applies u to the base row and returns the view-key version it
// overwrote (a write's pre-image) and the one current after it (what
// intent replay and backfill re-read).
func (g *rig) ack(u BaseUpdate) (pre, cur model.Cell) {
	g.acked = append(g.acked, u)
	base := g.port.row(g.def.Base, rigRow)
	pre = cellIn(base, g.def.ViewKeyColumn)
	base[u.Column] = model.Merge(cellIn(base, u.Column), u.Cell)
	return pre, cellIn(base, g.def.ViewKeyColumn)
}

// try runs one round of u's propagation over guesses.
func (g *rig) try(u BaseUpdate, guesses Pool) bool {
	task, ok := TaskFor(g.def, rigRow, []model.ColumnUpdate{{Column: u.Column, Cell: u.Cell}})
	if !ok {
		g.t.Fatalf("update %v is irrelevant to the view", u)
	}
	done, _ := g.round.Try(context.Background(), &task, guesses)
	return done
}

// viewCell reads one cell of rigRow in a view row.
func (g *rig) viewCell(viewKey, col string) model.Cell {
	return cellIn(g.port.row(g.def.Name, viewKey), model.Qualify(rigRow, col))
}

func TestInterruptedPromotionIsRedoSafe(t *testing.T) {
	shapes := []struct {
		name    string
		history []BaseUpdate // propagated cleanly first
		victim  BaseUpdate   // its promotion is interrupted, then retried
		second  BaseUpdate   // propagates in between
		// staleAt, when set, is a view key that must end as a stale row
		// whose pointer carries the live row's timestamp.
		staleAt string
		// severs: the victim re-promotes a stale chain link, so its
		// unpublished self-pointer cuts the anchor off from the live row.
		severs bool
		// deletedAt, when set, is the timestamp of the deletion marker
		// the live row must carry over from the row the victim superseded.
		deletedAt int64
	}{
		{name: "first creation, then a materialized update",
			history: []BaseUpdate{matAt("m0", 1)}, victim: vkAt("k1", 10), second: matAt("m1", 11)},
		{name: "supersede the live row, then a materialized update",
			history: []BaseUpdate{matAt("m0", 1), vkAt("k1", 10)}, victim: vkAt("k2", 20), second: matAt("m1", 21)},
		{name: "supersede the live row, overtaken by a newer key",
			history: []BaseUpdate{matAt("m0", 1), vkAt("k1", 10)}, victim: vkAt("k2", 20), second: vkAt("k3", 30), staleAt: "k2"},
		{name: "re-promote a stale chain link (severs the chain), older key in between",
			history: []BaseUpdate{matAt("m0", 1), vkAt("k0", 5), vkAt("k1", 10), vkAt("k2", 20)}, victim: vkAt("k1", 30), second: vkAt("k3", 25), staleAt: "k3", severs: true},
		{name: "re-promote a stale chain link, overtaken by a newer key",
			history: []BaseUpdate{matAt("m0", 1), vkAt("k0", 5), vkAt("k1", 10), vkAt("k2", 20)}, victim: vkAt("k1", 30), second: vkAt("k4", 40), staleAt: "k1", severs: true},
		// A belated deletion stamps the live row without winning in the
		// base table, so only that row records it.
		{name: "supersede a live row that carries a deletion marker, then a materialized update",
			history: []BaseUpdate{matAt("m0", 1), vkAt("k1", 10), delAt(5)}, victim: vkAt("k2", 20), second: matAt("m1", 21), deletedAt: 5},
	}
	steps := []string{"create+copy", "redirect", "publish"}
	for _, sh := range shapes {
		for k, step := range steps {
			// The guess pool besides the NULL seed: the row's previous view
			// key (what a write's pre-read collects), or its current one
			// (what intent replay and backfill re-read).
			for _, pool := range []string{"preimage", "replay"} {
				t.Run(fmt.Sprintf("%s/fail %s/%s pool", sh.name, step, pool), func(t *testing.T) {
					g := newRig(t)
					def, port, stats, try := g.def, g.port, &g.stats, g.try
					// ack applies the update to the base row and returns its
					// propagation's guess pool.
					ack := func(u BaseUpdate) staticPool {
						pre, cur := g.ack(u)
						if pool == "replay" {
							pre = cur
						}
						return staticPool{pre, model.NullCell}
					}
					for _, u := range sh.history {
						if !try(u, ack(u)) {
							t.Fatalf("history update %v did not propagate", u)
						}
					}

					// The victim's first round walks from one guess only, so
					// no second guess finishes what the injected failure
					// interrupted.
					victimPool := ack(sh.victim)
					first := victimPool[:1]
					if pool == "replay" {
						first = victimPool[1:] // its own key has no row yet
					}
					port.failKey, port.failIn = string(sh.victim.Cell.Value), k+1
					if try(sh.victim, first) {
						t.Fatalf("promotion completed although its %s write failed", step)
					}
					if port.failIn != 0 {
						t.Fatalf("promotion made fewer than %d writes", k+1)
					}
					// Both propagations now retry round by round, like the
					// drive loops, the second one first.
					secondPool := ack(sh.second)
					secondDone, victimDone := false, false
					for i := 0; i < 8 && !(secondDone && victimDone); i++ {
						secondDone = secondDone || try(sh.second, secondPool)
						victimDone = victimDone || try(sh.victim, victimPool)
					}
					if !secondDone || !victimDone {
						t.Fatalf("propagations never completed (second %v, victim %v)", secondDone, victimDone)
					}

					// Structure: exactly one live row per base key, published,
					// every chain reaching it (Definition 3).
					var entries []model.Entry
					for row, cells := range port.tables[def.Name] {
						for col, cell := range cells {
							entries = append(entries, model.Entry{Key: model.EncodeKey(row, col), Cell: cell})
						}
					}
					vrows, err := DecodeVersionedView(entries)
					if err != nil {
						t.Fatal(err)
					}
					want := ExpectedView(def, nil, g.acked)
					expectedLive := map[string]string{}
					for _, r := range want {
						expectedLive[r.BaseKey] = r.ViewKey
					}
					if err := CheckVersionedInvariants(vrows, expectedLive); err != nil {
						t.Fatal(err)
					}
					// Content: a reader (Algorithm 4) over every view row sees
					// exactly Definition 2's view.
					var got []ViewRow
					for viewKey, cells := range port.tables[def.Name] {
						if IsInternalKey(viewKey) {
							continue
						}
						rows, initializing := assembleViewRows([]*Def{def}, viewKey, entriesOf(cells), nil)
						if initializing {
							t.Errorf("view row %q still reads as initializing", viewKey)
						}
						got = append(got, rows...)
					}
					SortViewRows(got)
					if len(got) != len(want) {
						t.Fatalf("reader sees %v, oracle wants %v", got, want)
					}
					for i := range want {
						if got[i].ViewKey != want[i].ViewKey || got[i].BaseKey != want[i].BaseKey || !got[i].Cells["m"].Equal(want[i].Cells["m"]) {
							t.Fatalf("reader sees %v, oracle wants %v", got, want)
						}
					}
					if sh.staleAt != "" {
						live := want[0].ViewKey
						liveTS := g.viewCell(live, ColNext).TS
						ptr := g.viewCell(sh.staleAt, ColNext)
						if string(ptr.Value) != live || ptr.TS != liveTS {
							t.Fatalf("stale row %q points at %v, want the live row %q at its timestamp %d", sh.staleAt, ptr, live, liveTS)
						}
					}
					if sh.deletedAt != 0 {
						if del := g.viewCell(want[0].ViewKey, ColDeleted); del.TS != sh.deletedAt {
							t.Fatalf("live row %q carries deletion marker %v, want the superseded row's at ts %d", want[0].ViewKey, del, sh.deletedAt)
						}
					}
					// The lost publish (and only it) is finished by whoever
					// finds the redirect done.
					if step == "publish" && stats.HelpedPublishes.Load() == 0 {
						t.Error("nobody published the ready marker the interrupted promotion lost")
					}
					// A walk meets the ghost when it starts there or when the
					// ghost cut the chain; it must then have gone around it.
					meetsGhost := sh.severs || string(secondPool[0].Value) == string(sh.victim.Cell.Value)
					if step != "create+copy" && meetsGhost && stats.GhostDetours.Load() == 0 {
						t.Error("no walk ever detoured around the unpublished row")
					}
				})
			}
		}
	}
}

// A promotion that supersedes a selected live row is one read and three
// writes: the walk's hop of the old live row reads what CopyData copies
// from it, and the copied cells ride the create write. Where no such row
// can supply the copy — a first creation, an old live row outside the
// view's selection, an anchored task — CopyData reads the base row too.
// Refreshing the live key and inserting a stale row are one read and
// one write each.
func TestPromotionPortCalls(t *testing.T) {
	for _, c := range []struct {
		name          string
		sel           *Selection
		anchored      bool
		history       []BaseUpdate
		update        BaseUpdate
		reads, writes int
		baseReads     int64
	}{
		{name: "new row wins", history: []BaseUpdate{matAt("m0", 1), vkAt("k1", 10)}, update: vkAt("k2", 20), reads: 1, writes: 3},
		{name: "first creation", history: []BaseUpdate{matAt("m0", 1)}, update: vkAt("k1", 10), reads: 2, writes: 3, baseReads: 1},
		// The NULL guess an anchored task adds makes its walk start from
		// one batched read of both start keys.
		{name: "anchored", anchored: true, history: []BaseUpdate{matAt("m0", 1), vkAt("k1", 10)}, update: vkAt("k2", 20), reads: 2, writes: 3, baseReads: 1},
		{name: "live row outside the selection", sel: &Selection{Prefix: "k"},
			history: []BaseUpdate{matAt("m0", 1), vkAt("x1", 10)}, update: vkAt("k2", 20), reads: 2, writes: 3, baseReads: 1},
		{name: "refresh", history: []BaseUpdate{matAt("m0", 1), vkAt("k1", 10)}, update: vkAt("k1", 20), reads: 1, writes: 1},
		{name: "stale insert", history: []BaseUpdate{matAt("m0", 1), vkAt("k2", 20)}, update: vkAt("k1", 15), reads: 1, writes: 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := newRig(t)
			g.def.Selection = c.sel
			for _, u := range c.history {
				pre, _ := g.ack(u)
				if !g.try(u, staticPool{pre, model.NullCell}) {
					t.Fatalf("history update %v did not propagate", u)
				}
			}
			pre, _ := g.ack(c.update)
			g.port.reads, g.port.writes = 0, 0
			base := g.stats.BaseReads.Load()
			task, _ := TaskFor(g.def, rigRow, []model.ColumnUpdate{{Column: c.update.Column, Cell: c.update.Cell}})
			task.anchored = c.anchored
			if done, _ := g.round.Try(context.Background(), &task, staticPool{pre}); !done {
				t.Fatalf("update %v did not propagate from its pre-image %v", c.update, pre)
			}
			if g.port.reads != c.reads || g.port.writes != c.writes {
				t.Fatalf("%d reads and %d writes, want %d and %d", g.port.reads, g.port.writes, c.reads, c.writes)
			}
			if n := g.stats.BaseReads.Load() - base; n != c.baseReads {
				t.Fatalf("%d base reads, want %d", n, c.baseReads)
			}
			if m := g.viewCell(string(c.update.Cell.Value), "m"); c.writes == 3 && string(m.Value) != "m0" {
				t.Fatalf("the promoted row carries m = %v, want m0", m)
			}
		})
	}
}

// With several guesses the walks start from one batched read
// (prefetchStarts), and a walk's row is what CopyData copies, so each
// prefetched row must reach the walk it belongs to. Two guesses prefetch
// rows with distinct payloads; the promotion must copy its own
// terminus's cell and reach that terminus without a detour.
func TestPromotionCopiesItsOwnTerminus(t *testing.T) {
	g := newRig(t)
	cell := func(v string, ts int64) model.Cell { return model.Cell{Value: []byte(v), TS: ts} }
	set := func(viewKey, col string, c model.Cell) {
		g.port.row(g.def.Name, viewKey)[model.Qualify(rigRow, col)] = c
	}
	// "a" was live until "b" superseded it at 20. The base row's
	// materialized cell is older than either view row's, so the new row's
	// cell tells which row it was copied from.
	set("a", ColNext, cell("b", 20))
	set("a", ColReady, cell("1", 10))
	set("a", "m", cell("from a", 3))
	set("b", ColNext, cell("b", 20))
	set("b", ColReady, cell("1", 20))
	set("b", ColPrev, cell("a", 20))
	set("b", "m", cell("from b", 7))
	g.port.row(g.def.Base, rigRow)["m"] = cell("from base", 1)

	update := vkAt("c", 30)
	g.ack(update)
	if !g.try(update, staticPool{cell("b", 20), cell("a", 10)}) {
		t.Fatal("promotion of c did not complete")
	}
	if got := g.viewCell("c", "m"); string(got.Value) != "from b" || got.TS != 7 {
		t.Fatalf("promoted row carries m = %v, want the live row b's cell", got)
	}
	if g.port.reads != 1 || g.port.writes != 3 || g.stats.GhostDetours.Load() != 0 || g.stats.BatchedLookups.Load() != 1 {
		t.Fatalf("%d reads, %d writes, %d batched lookups, %d ghost detours; want 1 (the batch), 3, 1 and 0",
			g.port.reads, g.port.writes, g.stats.BatchedLookups.Load(), g.stats.GhostDetours.Load())
	}
}

// TestPrevIsReserved: a view cannot materialize a base column named
// like the redo-intent cell, and verification tooling reports the cell
// as structure, not data.
func TestPrevIsReserved(t *testing.T) {
	d := Def{Name: "v", Base: "b", ViewKeyColumn: "k", Materialized: []string{ColPrev}}
	if err := d.Validate(); err == nil {
		t.Fatal("view materializing __prev accepted")
	}
	rows, err := DecodeVersionedView([]model.Entry{
		{Key: model.EncodeKey("k2", model.Qualify("r", ColNext)), Cell: model.Cell{Value: []byte("k2"), TS: 2}},
		{Key: model.EncodeKey("k2", model.Qualify("r", ColPrev)), Cell: model.Cell{Value: []byte("k1"), TS: 2}},
	})
	if err != nil || len(rows) != 1 {
		t.Fatalf("decode: %v %v", rows, err)
	}
	if string(rows[0].Prev.Value) != "k1" || len(rows[0].Cells) != 0 {
		t.Fatalf("__prev decoded as data: %+v", rows[0])
	}
}

// A view-key deletion whose pre-image guesses are all tombstones is not
// a deletion of nothing: the row an earlier key created may still be
// live, so the deletion must walk to it and stamp __deleted. Treating
// tombstoned pre-images as "never written" no-opped the deletion, and a
// stale refresh of the old key at a timestamp between the two deletions
// then resurrected the view row (simulator seed 710836887, whose
// schedule no longer reaches this interleaving now that the simulator
// sends the coordinator's messages).
func TestDeletionOverTombstonedPreImagesStampsDeleted(t *testing.T) {
	const bk = "r"
	def := &Def{Name: "v", Base: "b", ViewKeyColumn: "k", Materialized: []string{"m"}}
	port := &fakePort{t: t, tables: map[string]map[string]model.Row{}}
	var stats Stats
	round := Round{Port: port, Stats: &stats, Obs: NewViewObs(), MaxChainHops: 64}
	var acked []BaseUpdate
	// ack applies a view-key update to the base row and returns the
	// version it replaced — its propagation's pre-image.
	ack := func(cell model.Cell) (BaseUpdate, model.Cell) {
		u := BaseUpdate{BaseKey: bk, Column: "k", Cell: cell}
		acked = append(acked, u)
		base := port.row(def.Base, bk)
		pre := cellIn(base, "k")
		base["k"] = model.Merge(pre, cell)
		return u, pre
	}
	propagate := func(u BaseUpdate, pool staticPool) {
		t.Helper()
		task, _ := TaskFor(def, bk, []model.ColumnUpdate{{Column: u.Column, Cell: u.Cell}})
		if done, err := round.Try(context.Background(), &task, pool); !done {
			t.Fatalf("update %v did not propagate: %v", u, err)
		}
	}
	deletedTS := func() int64 { return cellIn(port.row(def.Name, "k1"), model.Qualify(bk, ColDeleted)).TS }

	create, pre := ack(model.Cell{Value: []byte("k1"), TS: 10})
	propagate(create, staticPool{pre})
	firstDel, firstPre := ack(model.Cell{Tombstone: true, TS: 20}) // acknowledged, propagates last
	secondDel, pre := ack(model.Cell{Tombstone: true, TS: 30})
	if !pre.Tombstone {
		t.Fatalf("second deletion's pre-image is %v, want the first deletion's tombstone", pre)
	}
	propagate(secondDel, staticPool{pre})
	if got := deletedTS(); got != 30 {
		t.Fatalf("row k1 carries __deleted at ts %d after a deletion at 30 whose only pre-image was a tombstone", got)
	}
	refresh, pre := ack(model.Cell{Value: []byte("k1"), TS: 25}) // loses to the second deletion in the base table
	propagate(refresh, staticPool{pre, model.NullCell})
	propagate(firstDel, staticPool{firstPre})

	if want := ExpectedView(def, nil, acked); len(want) != 0 {
		t.Fatalf("oracle expects %v, the test's history should leave the key deleted", want)
	}
	rows, initializing := assembleViewRows([]*Def{def}, "k1", entriesOf(port.row(def.Name, "k1")), nil)
	if len(rows) != 0 || initializing {
		t.Fatalf("deleted row resurrected: reader sees %v (initializing=%v)", rows, initializing)
	}
}

// A deletion into a view that is still being backfilled may hold a live
// pre-image whose row the view never gets: the scan read the base row
// after the deletion landed and created nothing. Such an anchored task
// retried until it was abandoned (simulator seeds 5000 and 5039 of the
// drop-recreate scenario). Once every live guess and the anchor miss in
// one round it is a no-op; a live guess that finds its row is stamped as
// before.
func TestAnchoredDeletionOfNeverCreatedRowIsNoOp(t *testing.T) {
	const bk = "r"
	def := &Def{Name: "v", Base: "b", ViewKeyColumn: "k", Materialized: []string{"m"}}
	port := &fakePort{t: t, tables: map[string]map[string]model.Row{}}
	var stats Stats
	round := Round{Port: port, Stats: &stats, Obs: NewViewObs(), MaxChainHops: 64}
	del := []model.ColumnUpdate{{Column: "k", Cell: model.Cell{Tombstone: true, TS: 87}}}
	pool := staticPool{{Value: []byte("k1"), TS: 80}}
	try := func() {
		t.Helper()
		task, _ := TaskFor(def, bk, del)
		task.anchored = true
		if done, err := round.Try(context.Background(), &task, pool); !done {
			t.Fatalf("anchored deletion over pre-image %v did not finish: %v", pool[0], err)
		}
	}

	try()
	cells := 0
	for _, row := range port.tables[def.Name] {
		cells += len(row)
	}
	if n := stats.NoOps.Load(); n != 1 || cells != 0 {
		t.Fatalf("deletion of a never-created row: %d no-ops, %d view cells written; want 1 and none", n, cells)
	}

	create, _ := TaskFor(def, bk, []model.ColumnUpdate{{Column: "k", Cell: model.Cell{Value: []byte("k1"), TS: 80}}})
	if done, err := round.Try(context.Background(), &create, staticPool{model.NullCell}); !done {
		t.Fatalf("creating k1: %v", err)
	}
	try()
	if got := cellIn(port.row(def.Name, "k1"), model.Qualify(bk, ColDeleted)).TS; got != 87 || stats.NoOps.Load() != 1 {
		t.Fatalf("row k1 carries __deleted at ts %d with %d no-ops; want 87 and still 1", got, stats.NoOps.Load())
	}
}

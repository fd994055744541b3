package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"vstore"
)

// testEnv is a run small enough for unit tests: 2,000 rows, one set-up,
// 0.1 s windows, millisecond micro loops.
func testEnv(t *testing.T, stderr *bytes.Buffer) *env {
	t.Helper()
	return &env{
		seed: 1, rows: 2000, setups: 1, allocOps: 100, scratch: t.TempDir(), stderr: stderr,
		window: 100 * time.Millisecond, warmup: 20 * time.Millisecond, micro: 2 * time.Millisecond,
	}
}

// A correct store passes verification; an oracle with one expectation
// flipped must report failed checks, and the command must exit non-zero.
func TestCheckerCatchesAFlippedExpectation(t *testing.T) {
	ctx := context.Background()
	ds := newDataset(256)
	db, _, err := setup(ctx, vstore.Config{}, ds)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	m := newOracle(ds)
	cls := newClients(db, 1)
	for i := 0; i < 50; i++ {
		if _, _, ok := cls[0].do(ctx, m, opPut, own(cls[0], i)); !ok {
			t.Fatal("put failed")
		}
	}
	if err := db.QuiesceViews(ctx); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	if got := m.verify(ctx, cls[0].cl, viewName, &log); got.failed != 0 || got.attempted == 0 {
		t.Fatalf("correct store: %+v\n%s", got, log.String())
	}
	// Touched rows are checked under their last key, against their
	// previous key and in the base table; untouched ones are sampled.
	want := 0
	for k := 0; k < ds.rows; k++ {
		if m.touched[k] {
			want += 3
		} else if k%verifyStride == 0 {
			want += 2
		}
	}
	if got := m.verify(ctx, cls[0].cl, viewName, &log); got.attempted != want {
		t.Errorf("verify made %d checks, want %d", got.attempted, want)
	}

	k := own(cls[0], 7)
	m.cur[k], m.prev[k] = m.prev[k], m.cur[k] // expect the row under the key it left
	got := m.verify(ctx, cls[0].cl, viewName, &log)
	if got.failed != 3 { // not under "last", still under "previous", base row differs
		t.Errorf("flipped expectation: %d failed checks, want 3\n%s", got.failed, log.String())
	}
	if !strings.Contains(log.String(), ds.keys[k]) {
		t.Errorf("the complaint does not name the row: %s", log.String())
	}
}

func TestFlippedRunExitsNonZero(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	var stdout, stderr bytes.Buffer
	e := testEnv(t, &stderr)
	sp := findSpec("view_write")
	if code := e.runPrint(ctx, sp, false, &stdout); code != 0 {
		t.Fatalf("clean run exited %d\n%s", code, stderr.String())
	}
	stdout.Reset()
	e.flip = true
	if code := e.runPrint(ctx, sp, false, &stdout); code != 1 {
		t.Fatalf("flipped run exited %d, want 1\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), `"correct":false`) {
		t.Errorf("flipped run printed %s", stdout.String())
	}
}

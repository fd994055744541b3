package vstore_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"vstore"
)

// TestHotRowStress is the hot-row regime with default options: four
// writers, each the only writer of two hot rows, issue back-to-back
// view-key Puts for a few seconds of wall clock. Each propagation of a
// row can only land once its predecessor has created the row its guess
// names. Polling for that on the retry back-off costs tens of attempts
// per propagation; a row lock that grants in arrival order instead made
// the rate bimodal and let one slow row take every back-pressure slot
// until propagations were abandoned. Handed from one propagation to the
// next, every one lands within a few attempts and none is dropped.
func TestHotRowStress(t *testing.T) {
	const (
		writers = 4
		rowsPer = 2
		window  = 3 * time.Second
	)
	seed := chaosSeed(t, 1)
	db := openDB(t, vstore.Config{Seed: seed})
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView(vstore.ViewDef{Name: "v", Base: "t", ViewKey: "k"}); err != nil {
		t.Fatal(err)
	}
	ctx := ctxT(t)
	row := func(w, j int) string { return fmt.Sprintf("hot-%d-%d", w, j) }
	before := db.Stats()

	last := make([][rowsPer]string, writers) // each row's last acknowledged view key
	errs := make([]error, writers)
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, rnd := db.Client(w), rand.New(rand.NewSource(seed+int64(w)))
			for n := 0; time.Now().Before(deadline); n++ {
				j, key := rnd.Intn(rowsPer), fmt.Sprintf("w%d-%d", w, n)
				if err := c.Put(ctx, "t", row(w, j), vstore.Values{"k": key}); err != nil {
					errs[w] = fmt.Errorf("put %s: %w", row(w, j), err)
					return
				}
				last[w][j] = key
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db.QuiesceViews(ctx); err != nil {
		t.Fatal(err)
	}

	st := db.Stats().Delta(before).Views
	done := st.Propagations + st.NoOps
	attempts := float64(done+st.PropagationFailures) / float64(done)
	t.Logf("%d propagations, %.2f attempts each, %d hand-offs, %d dropped", done, attempts, st.HandOffs, st.PropagationsDropped)
	if st.PropagationsDropped != 0 {
		t.Errorf("%d propagations abandoned", st.PropagationsDropped)
	}
	if attempts > 3 {
		t.Errorf("%.2f attempts per propagation, want <= 3", attempts)
	}
	if blob, err := json.Marshal(st); st.HandOffs == 0 || err != nil || !strings.Contains(string(blob), fmt.Sprintf(`"hand_offs":%d`, st.HandOffs)) {
		t.Errorf("no propagation handed off to its predecessor, or the count missing from the stats JSON: %s %v", blob, err)
	}
	for w := range last {
		for j, key := range last[w] {
			if key == "" {
				continue
			}
			rows, err := db.Client(0).GetView(ctx, "v", key)
			if err != nil || len(rows) != 1 || rows[0].BaseKey != row(w, j) {
				t.Errorf("view under %q (last key of %s) = %v, %v", key, row(w, j), rows, err)
			}
		}
	}
}

// Skew demonstrates the paper's Section VI-D concern: repeatedly
// updating the view key of the *same* base row grows a chain of stale
// rows in the versioned view, and update propagation must walk that
// chain to find the live row. The example hammers one row, prints how
// the chain-walk counters grow, and then shows the path-compression
// extension flattening the chains. It also prints how often an attempt
// failed because the row its guess named did not exist yet, and how
// many of those then waited for the in-flight propagation that creates
// it (a hand-off) instead of retrying on a back-off timer.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"vstore"
)

func run(compression bool) vstore.ViewStats {
	db, err := vstore.Open(vstore.Config{
		Views: vstore.ViewOptions{
			PathCompression: compression,
			// Randomize when each propagation starts, so they reach
			// the view out of order — the regime where stale chains
			// actually have to be walked. (With perfectly in-order
			// propagation every guess already names the live row.)
			PropagationDelay: func() time.Duration {
				return time.Duration(rand.Int63n(int64(10 * time.Millisecond)))
			},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	must(db.CreateTable("items"))
	must(db.CreateView(vstore.ViewDef{Name: "by_owner", Base: "items", ViewKey: "owner"}))

	// 200 reassignments of one item from 8 concurrent writers: every
	// one retires the previous live view row into a stale row.
	base := time.Now().UnixMicro()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := db.Client(w)
			for i := w; i < 200; i += 8 {
				must(c.PutUpdates(ctx, "items", "hot-item", []vstore.Update{{
					Column:    "owner",
					Value:     []byte(fmt.Sprintf("owner-%03d", i)),
					Timestamp: base + int64(i),
				}}))
			}
		}(w)
	}
	wg.Wait()
	must(db.QuiesceViews(ctx))

	st := db.Stats()
	// The final owner (largest timestamp) must be the only one who
	// sees the item.
	c := db.Client(0)
	rows, err := c.GetView(ctx, "by_owner", "owner-199")
	must(err)
	if len(rows) != 1 || rows[0].BaseKey != "hot-item" {
		log.Fatalf("live row wrong: %v", rows)
	}
	for _, stale := range []string{"owner-000", "owner-100", "owner-198"} {
		rows, err := c.GetView(ctx, "by_owner", stale)
		must(err)
		if len(rows) != 0 {
			log.Fatalf("stale owner %s still sees the item", stale)
		}
	}
	return st.Views
}

func main() {
	fmt.Println("hammering one row's view key, 200 reassignments:")
	for _, compression := range []bool{false, true} {
		name := "plain chains:    "
		if compression {
			name = "path compression:"
		}
		st := run(compression)
		fmt.Printf("  %s %3d propagations walked %3d stale hops; %3d failed attempts, %3d hand-offs\n",
			name, st.Propagations, st.ChainHops, st.PropagationFailures, st.HandOffs)
	}
	fmt.Println("\nthe paper's Figure 8 measures the throughput cost of exactly this")
	fmt.Println("effect; run `mvbench -fig 8` (and `-ablation compression`) for it.")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// Command mvverify is a consistency fuzzer for the view-maintenance
// protocol: it drives randomized concurrent workloads (view-key
// updates with colliding timestamps, materialized-column updates,
// deletions, node crashes) through an embedded cluster, then checks
// the quiesced system against executable versions of the paper's
// Definitions 1-3:
//
//   - the application-visible view must equal Definition 1 applied to
//     the final base state;
//   - the versioned view structure must satisfy Definition 3's
//     invariants (one ready live row per base row, acyclic chains).
//
// Every failure prints the seed that reproduces it. -sim switches to
// the deterministic virtual-time simulator (internal/sim): same seed,
// same schedule, byte-identical event trace — the replay target that
// failure messages print. The seed can also come from the MV_SEED
// environment variable, shared with the go test harnesses.
//
//	mvverify -rounds 50 -ops 200 -seed 1
//	mvverify -rounds 10 -chaos
//	mvverify -sim -rounds 20 -seed 1 -compress
//	mvverify -sim -durable -rounds 10 -seed 1 -v
//	mvverify -sim -durable -scenario backfill -storage-faults 0.02 -rounds 5 -v
//	mvverify -sim -scenario drop-recreate -compress -rounds 5 -v
//	mvverify -sim -scenario hot-row -rounds 5 -v
//	mvverify -sim -scenario define-during-burst -rounds 5 -v
//	MV_SEED=124 mvverify -sim -v
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"time"

	"vstore/internal/cluster"
	"vstore/internal/core"
	"vstore/internal/model"
	physmem "vstore/internal/physical/mem"
	"vstore/internal/sim"
	"vstore/internal/sstable"
	"vstore/internal/transport"
)

func main() {
	var (
		rounds   = flag.Int("rounds", 20, "independent workload rounds")
		ops      = flag.Int("ops", 150, "updates per round")
		baseRows = flag.Int("rows", 8, "distinct base rows")
		keys     = flag.Int("keys", 6, "distinct view-key values")
		seed     = flag.Int64("seed", defaultSeed(), "starting seed (round i uses seed+i; MV_SEED overrides)")
		compress = flag.Bool("compress", false, "path compression")
		chaos    = flag.Bool("chaos", false, "bounce nodes during the workload")
		simMode  = flag.Bool("sim", false, "deterministic virtual-time simulation (replayable traces)")
		durable  = flag.Bool("durable", false, "with -sim: durable nodes plus crash-restart faults (WAL/sstable recovery under the oracle)")
		backend  = flag.String("backend", "fs", "with -sim -durable: physical backend, fs (temp directory) or mem (hermetic in-memory)")
		faults   = flag.Float64("storage-faults", 0, "with -sim -durable: per-operation injected storage fault probability [0,1)")
		scenario = flag.String("scenario", "", "with -sim: backfill (view defined mid-run, scans race crashes), drop-recreate (skewed writes, view dropped then re-created), hot-row (back-to-back writers of a few rows, fault-free) or define-during-burst (hot-row with a second view defined while every writer's Put is in flight)")
		replay   = flag.Int64("replay", 0, "replay exactly one simulated schedule with this seed (implies -sim)")
		verbose  = flag.Bool("v", false, "per-round progress")
	)
	flag.Parse()

	if *backend != "fs" && *backend != "mem" {
		fmt.Fprintf(os.Stderr, "mvverify: unknown -backend %q (want fs or mem)\n", *backend)
		os.Exit(2)
	}
	if _, err := sim.WithScenario(sim.Config{}, *scenario); err != nil {
		fmt.Fprintf(os.Stderr, "mvverify: -scenario: %v\n", err)
		os.Exit(2)
	}
	if *replay != 0 {
		os.Exit(runSim(1, *replay, *baseRows, *keys, *compress, *durable, *backend, *faults, *scenario, true))
	}
	if *simMode {
		os.Exit(runSim(*rounds, *seed, *baseRows, *keys, *compress, *durable, *backend, *faults, *scenario, *verbose))
	}
	if *durable {
		fmt.Fprintln(os.Stderr, "mvverify: -durable requires -sim")
		os.Exit(2)
	}
	if *scenario != "" {
		fmt.Fprintln(os.Stderr, "mvverify: -scenario requires -sim")
		os.Exit(2)
	}

	opts := core.Options{
		PathCompression:     *compress,
		MaxPropagationRetry: 30 * time.Second,
	}

	failures := 0
	for round := 0; round < *rounds; round++ {
		s := *seed + int64(round)
		err := runRound(opts, s, *ops, *baseRows, *keys, *chaos)
		if err != nil {
			failures++
			fmt.Printf("FAIL seed=%d: %v\n", s, err)
		} else if *verbose {
			fmt.Printf("ok   seed=%d\n", s)
		}
	}
	if failures > 0 {
		fmt.Printf("mvverify: %d/%d rounds FAILED\n", failures, *rounds)
		os.Exit(1)
	}
	fmt.Printf("mvverify: %d rounds, %d ops each: all invariants held\n", *rounds, *ops)
}

// defaultSeed honors MV_SEED (the replay knob shared with the go test
// harnesses) and otherwise generates a fresh seed.
func defaultSeed() int64 {
	if s := os.Getenv("MV_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mvverify: bad MV_SEED %q: %v\n", s, err)
			os.Exit(2)
		}
		return v
	}
	return time.Now().UnixNano() % 1e6
}

// runSim drives the deterministic simulator: each round is a pure
// function of its seed, so any failure replays exactly — the printed
// trace hash is byte-stable across runs and machines.
func runSim(rounds int, seed int64, baseRows, keys int, compress, durable bool, backend string, faults float64, scenario string, verbose bool) int {
	failures := 0
	for round := 0; round < rounds; round++ {
		s := seed + int64(round)
		cfg := sim.Config{
			Seed:             s,
			BaseRows:         baseRows,
			ViewKeys:         keys,
			PathCompression:  compress,
			StorageFaultProb: faults,
		}
		cfg, _ = sim.WithScenario(cfg, scenario) // validated in main
		if durable {
			switch backend {
			case "mem":
				cfg.Backend = physmem.New()
			default: // fs
				dir, err := os.MkdirTemp("", "mvverify-sim-*")
				if err != nil {
					fmt.Fprintf(os.Stderr, "mvverify: %v\n", err)
					return 1
				}
				cfg.Dir = dir
			}
		}
		r := sim.Run(cfg)
		if cfg.Dir != "" {
			os.RemoveAll(cfg.Dir)
		}
		if r.Err != nil {
			failures++
			fmt.Printf("FAIL seed=%d: %v\n", s, r.Err)
			if r.Invariant != "" {
				fmt.Printf("  first violated invariant: %s at virtual time %v\n", r.Invariant, r.FailedAt)
			} else {
				fmt.Printf("  failed at virtual time %v\n", r.FailedAt)
			}
			for _, e := range r.Trace.Tail(12) {
				fmt.Printf("  %s\n", e.String())
			}
		} else if verbose {
			extra := ""
			if durable {
				extra = fmt.Sprintf(", %d crash-restarts, %d intents re-enqueued", r.CrashRestarts, r.IntentsReenqueued)
			}
			if cfg.CreateViewAt > 0 {
				extra += fmt.Sprintf(", backfill: %d scanned/%d resumes/%d drops live=%v",
					r.BackfillRowsScanned, r.BackfillResumes, r.ViewDrops, r.BackfillLive)
			}
			if scenario == "hot-row" {
				extra += fmt.Sprintf(", %.2f attempts per propagation, view lag mean %.1f ms",
					float64(r.Propagations+r.PropagationRetries)/float64(r.Propagations), float64(r.PropLag.Sum)/float64(r.PropLag.Count)/1e3)
			}
			co := r.Coord
			fmt.Printf("ok   seed=%d  %d events, %d propagations, %d chain hops, %d compressions, manager: %d failed attempts/%d hand-offs/%d abandoned/%d late tasks/%d backpressure waits/%d shared locks, coord: %d digest reads/%d mismatches/%d repairs/%d hints/%d replayed/%d multigets%s, trace %s\n",
				s, r.Events, r.Propagations, r.ChainHops, r.Compressions,
				r.PropagationRetries, r.HandOffs, r.Abandoned, r.LateTasks, r.BackpressureWaits, r.SharedLocks,
				co.DigestReads, co.DigestMismatches, co.ReadRepairs, co.HintsStored, co.HintsReplayed, co.MultiGets,
				extra, r.TraceHash[:16])
		}
	}
	if failures > 0 {
		fmt.Printf("mvverify: %d/%d simulated rounds FAILED\n", failures, rounds)
		return 1
	}
	fmt.Printf("mvverify: %d simulated rounds: all invariants held\n", rounds)
	return 0
}

func runRound(opts core.Options, seed int64, ops, baseRows, keySpace int, chaos bool) error {
	c := cluster.New(cluster.Config{
		Nodes:              4,
		N:                  3,
		HintReplayInterval: 50 * time.Millisecond,
		RequestTimeout:     2 * time.Second,
		Seed:               seed,
	})
	defer c.Close()
	reg := core.NewRegistry(opts)
	defer reg.Close()
	mgrs := make([]*core.Manager, c.Size())
	for i := range mgrs {
		mgrs[i] = core.NewManager(reg, c.Coordinator(i))
	}
	for _, tbl := range []string{"base", "view"} {
		if err := c.CreateTable(tbl); err != nil {
			return err
		}
	}
	def := core.Def{Name: "view", Base: "base", ViewKeyColumn: "vk", Materialized: []string{"m"}}
	if err := reg.Define(def); err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	r := rand.New(rand.NewSource(seed))

	// Optional chaos: bounce one node at a time while writing. Writes
	// use W=2 of N=3, so a single down node never blocks progress.
	stopChaos := make(chan struct{})
	var chaosWG sync.WaitGroup
	if chaos {
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			cr := rand.New(rand.NewSource(seed ^ 0x5eed))
			for {
				select {
				case <-stopChaos:
					return
				default:
				}
				victim := transport.NodeID(cr.Intn(c.Size()))
				c.SetNodeDown(victim, true)
				time.Sleep(time.Duration(cr.Intn(10)) * time.Millisecond)
				c.SetNodeDown(victim, false)
				time.Sleep(time.Duration(cr.Intn(5)) * time.Millisecond)
			}
		}()
	}

	var mu sync.Mutex
	var applied []core.BaseUpdate
	var wg sync.WaitGroup
	var firstErr error
	for i := 0; i < ops; i++ {
		baseKey := fmt.Sprintf("row-%d", r.Intn(baseRows))
		ts := int64(r.Intn(ops/2) + 1)
		var u model.ColumnUpdate
		switch r.Intn(10) {
		case 0, 1, 2, 3:
			u = model.Update("vk", []byte(fmt.Sprintf("key-%d", r.Intn(keySpace))), ts)
		case 4:
			u = model.Deletion("vk", ts)
		default:
			u = model.Update("m", []byte(fmt.Sprintf("m-%d", r.Intn(100))), ts)
		}
		mgr := mgrs[r.Intn(len(mgrs))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Retry through chaos: the write may fail while a quorum
			// is unreachable.
			for attempt := 0; attempt < 50; attempt++ {
				err := mgr.Put(ctx, "base", baseKey, []model.ColumnUpdate{u}, 2, nil)
				if err == nil {
					mu.Lock()
					applied = append(applied, core.BaseUpdate{BaseKey: baseKey, Column: u.Column, Cell: u.Cell})
					mu.Unlock()
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("write never succeeded for %s", baseKey)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	close(stopChaos)
	chaosWG.Wait()
	for i := 0; i < c.Size(); i++ {
		c.SetNodeDown(transport.NodeID(i), false)
	}
	if firstErr != nil {
		return firstErr
	}
	for _, m := range mgrs {
		if err := m.Quiesce(ctx); err != nil {
			return fmt.Errorf("quiesce: %w", err)
		}
	}
	c.RunAntiEntropyRound()

	var abandoned int64
	for _, m := range mgrs {
		abandoned += m.Stats().Abandoned.Load()
	}
	if abandoned > 0 {
		return fmt.Errorf("%d propagations abandoned", abandoned)
	}

	// Definition 1/2 check: visible view == oracle.
	d, _ := reg.View("view")
	expected := core.ExpectedView(d, map[string]model.Row{}, applied)
	wantByKey := map[string]map[string]model.Cell{}
	for _, vr := range expected {
		if wantByKey[vr.ViewKey] == nil {
			wantByKey[vr.ViewKey] = map[string]model.Cell{}
		}
		wantByKey[vr.ViewKey][vr.BaseKey] = vr.Cells["m"]
	}
	for k := 0; k < keySpace; k++ {
		key := fmt.Sprintf("key-%d", k)
		rows, err := mgrs[0].GetView(ctx, "view", key, nil)
		if err != nil {
			return err
		}
		want := wantByKey[key]
		if len(rows) != len(want) {
			return fmt.Errorf("view[%s]: %d rows, oracle %d", key, len(rows), len(want))
		}
		for _, vr := range rows {
			wantCell, ok := want[vr.BaseKey]
			if !ok {
				return fmt.Errorf("view[%s]: unexpected base row %s", key, vr.BaseKey)
			}
			gotCell, gok := vr.Cells["m"]
			if wantCell.Exists() != gok || (gok && !gotCell.Equal(wantCell)) {
				return fmt.Errorf("view[%s]/%s: cell %v, oracle %v", key, vr.BaseKey, gotCell, wantCell)
			}
		}
	}

	// Definition 3 check: versioned structure.
	runs := make([][]model.Entry, 0, c.Size())
	for _, n := range c.Nodes {
		runs = append(runs, n.TableSnapshot("view"))
	}
	vrows, err := core.DecodeVersionedView(sstable.MergeRuns(runs, false))
	if err != nil {
		return err
	}
	return core.CheckVersionedInvariants(vrows, nil)
}

// Command mvverify is a consistency fuzzer for the view-maintenance
// protocol. Each round runs the deterministic virtual-time simulator
// (internal/sim): randomized concurrent clients (view-key updates with
// colliding timestamps, materialized-column updates, deletions) under
// message drops, partitions, node crashes and — with -durable —
// crash-restarts that recover from the WAL and sstables, all checked
// against executable versions of the paper's Definitions 1-3.
//
// A round is a pure function of its seed and flags: the same seed gives
// the same schedule and a byte-identical event trace. Every failing
// round prints the command that replays it (-replay). The starting seed
// can also come from the MV_SEED environment variable, shared with the
// go test harnesses. With -costs each round also prints its cost table:
// replica requests per client operation by class and kind, and the
// propagation and coordinator counters (internal/sim/costs.go) — the
// protocol's work, exact for a seed where the wall-clock benchmark is
// noisy.
//
//	mvverify -rounds 20 -seed 1 -compress
//	mvverify -rounds 1 -seed 42 -compress -costs
//	mvverify -durable -rounds 10 -seed 1 -v
//	mvverify -durable -backend mem -scenario backfill -storage-faults 0.02 -rounds 5 -v
//	mvverify -scenario drop-recreate -compress -rounds 5 -v
//	mvverify -scenario hot-row -rounds 5 -v
//	mvverify -scenario define-during-burst -rounds 5 -v
//	mvverify -replay 124 -compress
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	physmem "vstore/internal/physical/mem"
	"vstore/internal/sim"
)

func main() {
	var (
		rounds   = flag.Int("rounds", 20, "independent simulated rounds")
		baseRows = flag.Int("rows", 8, "distinct base rows")
		keys     = flag.Int("keys", 6, "distinct view-key values")
		seed     = flag.Int64("seed", defaultSeed(), "starting seed (round i uses seed+i; MV_SEED overrides)")
		compress = flag.Bool("compress", false, "path compression")
		durable  = flag.Bool("durable", false, "durable nodes plus crash-restart faults (WAL/sstable recovery under the oracle)")
		backend  = flag.String("backend", "fs", "with -durable: physical backend, fs (temp directory) or mem (hermetic in-memory)")
		faults   = flag.Float64("storage-faults", 0, "with -durable: per-operation injected storage fault probability [0,1)")
		scenario = flag.String("scenario", "", "backfill (view defined mid-run, scans race crashes), drop-recreate (skewed writes, view dropped then re-created), hot-row (back-to-back writers of a few rows, fault-free) or define-during-burst (hot-row with a second view defined while every writer's Put is in flight)")
		replay   = flag.Int64("replay", 0, "replay exactly one round with this seed, verbosely")
		verbose  = flag.Bool("v", false, "per-round progress")
		costs    = flag.Bool("costs", false, "print each round's cost table (requests per client operation by class and kind, propagation and coordinator counters)")
	)
	flag.Parse()

	if *backend != "fs" && *backend != "mem" {
		fmt.Fprintf(os.Stderr, "mvverify: unknown -backend %q (want fs or mem)\n", *backend)
		os.Exit(2)
	}
	cfg, err := sim.WithScenario(sim.Config{BaseRows: *baseRows, ViewKeys: *keys, PathCompression: *compress, StorageFaultProb: *faults}, *scenario)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mvverify: -scenario: %v\n", err)
		os.Exit(2)
	}
	if *replay != 0 {
		*seed, *rounds, *verbose = *replay, 1, true
	}
	os.Exit(runSim(cfg, *seed, *rounds, *durable, *backend, *scenario == "hot-row", *verbose, *costs))
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
func runSim(base sim.Config, seed int64, rounds int, durable bool, backend string, hotRow, verbose, costs bool) int {
	failures := 0
	for round := 0; round < rounds; round++ {
		cfg := base
		cfg.Seed = seed + int64(round)
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
			fmt.Printf("FAIL seed=%d: %v\n", cfg.Seed, r.Err)
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
			if hotRow {
				extra += fmt.Sprintf(", %.2f attempts per propagation, view lag mean %.1f ms",
					float64(r.Propagations+r.PropagationRetries)/float64(r.Propagations), float64(r.PropLag.Sum)/float64(r.PropLag.Count)/1e3)
			}
			co := r.Coord
			fmt.Printf("ok   seed=%d  %d events, %d propagations, %d chain hops, %d compressions, manager: %d failed attempts/%d hand-offs/%d abandoned/%d late tasks/%d backpressure waits/%d shared locks/%d base reads, coord: %d digest reads/%d mismatches/%d repairs/%d hints/%d replayed/%d multigets%s, trace %s\n",
				cfg.Seed, r.Events, r.Propagations, r.ChainHops, r.Compressions,
				r.PropagationRetries, r.HandOffs, r.Abandoned, r.LateTasks, r.BackpressureWaits, r.SharedLocks, r.BaseReads,
				co.DigestReads, co.DigestMismatches, co.ReadRepairs, co.HintsStored, co.HintsReplayed, co.MultiGets,
				extra, r.TraceHash[:16])
		}
		if costs {
			fmt.Printf("costs seed=%d\n%s\n", cfg.Seed, r.CostTable())
		}
	}
	if failures > 0 {
		fmt.Printf("mvverify: %d/%d simulated rounds FAILED\n", failures, rounds)
		return 1
	}
	fmt.Printf("mvverify: %d simulated rounds: all invariants held\n", rounds)
	return 0
}

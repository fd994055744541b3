// Command mvserver runs a vstore cluster as a network service: an
// embedded multi-node eventually consistent record store with
// materialized views, reachable over the wire protocol (see
// internal/wire). Drive it with mvctl -addr, load it with mvctl load,
// or program against the wire.Client library.
//
//	mvserver -addr :7654 -nodes 4 -replication 3
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vstore"
	"vstore/internal/wire"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7654", "listen address")
		nodes    = flag.Int("nodes", 4, "cluster size")
		repl     = flag.Int("replication", 3, "replication factor N")
		w        = flag.Int("w", 0, "default write quorum (0 = majority)")
		r        = flag.Int("r", 0, "default read quorum (0 = majority)")
		antiInt  = flag.Duration("antientropy", 5*time.Second, "anti-entropy interval (0 = off)")
		httpAddr = flag.String("http", "", "serve /stats and /traces as JSON on this address (empty = off)")
		dir      = flag.String("dir", "", "durable storage directory, opened as a filesystem physical backend (empty = in-memory)")
		fsync    = flag.String("fsync", "interval", "WAL fsync policy: always, interval, off")
		fsyncInt = flag.Duration("fsync-interval", 0, "fsync cadence under -fsync=interval (0 = default)")
	)
	flag.Parse()

	policy, err := parseFsync(*fsync)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mvserver: %v\n", err)
		os.Exit(1)
	}
	cfg := vstore.Config{
		Nodes:               *nodes,
		ReplicationFactor:   *repl,
		WriteQuorum:         *w,
		ReadQuorum:          *r,
		AntiEntropyInterval: *antiInt,
		Durability:          vstore.DurabilityOptions{Fsync: policy, FsyncInterval: *fsyncInt},
	}
	if *dir != "" {
		// Explicit backend construction — the Config.Dir sugar does the
		// same, but the server spells out which physical backend it runs.
		cfg.Backend = vstore.FSBackend(*dir)
	}
	db, err := vstore.Open(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mvserver: %v\n", err)
		os.Exit(1)
	}
	if *dir != "" {
		rs := db.RecoveryStats()
		fmt.Printf("mvserver: durable at %s (fsync=%s): recovered %d tables, %d runs, replayed %d WAL records (%d bytes, %d torn tails) and re-enqueued %d/%d pending intents in %s\n",
			*dir, policy, rs.Tables, rs.Runs, rs.RecordsReplayed, rs.BytesReplayed, rs.TornTails, rs.IntentsReenqueued, rs.IntentsPending, rs.Duration.Round(time.Microsecond))
	}

	srv := wire.NewServer(db)
	bound, err := srv.Listen(*addr)
	if err != nil {
		db.Close()
		fmt.Fprintf(os.Stderr, "mvserver: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("mvserver: %d-node cluster (N=%d) listening on %s\n", db.Nodes(), db.ReplicationFactor(), bound)

	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, db.Stats())
		})
		mux.HandleFunc("/traces", func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, db.Traces())
		})
		//lint:ignore goexit observability endpoint lives for the whole process; SIGTERM below tears down the process, which is its lifecycle
		go func() {
			if err := http.ListenAndServe(*httpAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "mvserver: http: %v\n", err)
			}
		}()
		fmt.Printf("mvserver: observability endpoints on http://%s/stats and /traces\n", *httpAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	// Graceful shutdown: stop accepting connections, then let db.Close
	// drain in-flight view propagations and sync every node's WAL so a
	// restart recovers with nothing pending.
	fmt.Printf("mvserver: %v — draining propagations and syncing WALs\n", got)
	srv.Close()
	db.Close()
	fmt.Println("mvserver: shutdown complete")
}

func parseFsync(s string) (vstore.FsyncPolicy, error) {
	switch s {
	case "always":
		return vstore.FsyncAlways, nil
	case "interval":
		return vstore.FsyncInterval, nil
	case "off":
		return vstore.FsyncOff, nil
	}
	return 0, fmt.Errorf("unknown -fsync policy %q (want always, interval or off)", s)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

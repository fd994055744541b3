package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"time"

	"vstore"
	"vstore/internal/wire"
	"vstore/internal/workload"
)

// load is `mvctl load`, a load generator for a remote mvserver: it loads
// a keyspace over the wire protocol, then drives closed-loop readers or
// writers against the base table, a native secondary index or a
// materialized view, and reports throughput and latency percentiles —
// the paper's client harness (workload.RunClosedLoop), against the
// network service.
//
//	mvserver -addr :7654 &
//	mvctl load -addr 127.0.0.1:7654 -rows 20000 -clients 8 -duration 10s -workload mv-read
func load(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mvctl load", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:7654", "mvserver address")
		rows     = fs.Int("rows", 10000, "keyspace size to load")
		clients  = fs.Int("clients", 4, "concurrent closed-loop clients")
		duration = fs.Duration("duration", 10*time.Second, "measurement window")
		warmup   = fs.Duration("warmup", time.Second, "unmeasured warmup")
		fill     = fs.Bool("load", true, "create schema and load rows first")
		name     = fs.String("workload", "bt-read", "bt-read|si-read|mv-read|bt-write|mv-write")
		seed     = fs.Int64("seed", 1, "random seed")
	)
	fs.Parse(args)
	op, err := loadOp(*name, *rows)
	if err != nil {
		return err
	}
	if *clients < 1 {
		return fmt.Errorf("-clients must be positive")
	}

	// One connection per client: a wire.Client serializes its requests.
	conns := make([]*wire.Client, *clients)
	for i := range conns {
		if conns[i], err = wire.Dial(*addr, 5*time.Second); err != nil {
			return err
		}
		defer conns[i].Close()
	}
	if err := conns[0].Ping(); err != nil {
		return err
	}
	if *fill {
		fmt.Fprintf(out, "loading %d rows...\n", *rows)
		start := time.Now()
		if err := fillKeyspace(conns, *rows); err != nil {
			return err
		}
		fmt.Fprintf(out, "loaded in %v\n", time.Since(start).Round(time.Millisecond))
	}

	fmt.Fprintf(out, "running %s: %d clients for %v (+%v warmup)\n", *name, *clients, *duration, *warmup)
	res := workload.RunClosedLoop(*clients, *warmup, *duration, *seed, func(c int, r *rand.Rand) error {
		return op(conns[c], r)
	})
	fmt.Fprintf(out, "throughput: %.1f req/s\n", res.Throughput)
	fmt.Fprintf(out, "latency:    %s\n", res.Summary())
	if res.Errors > 0 {
		fmt.Fprintf(out, "errors:     %d\n", res.Errors)
	}
	return nil
}

// The loaded keyspace: row data-<i> has secondary key sec-<i>, which
// the index and the view are on.
func key(i int) string { return workload.Key("data-", i) }
func sec(i int) string { return workload.Key("sec-", i) }

// fillKeyspace creates the table, loads rows through every connection
// in parallel, then creates the index and the view over them.
func fillKeyspace(conns []*wire.Client, rows int) error {
	if err := conns[0].CreateTable("data"); err != nil {
		return err
	}
	errs := make(chan error, len(conns))
	for c, conn := range conns {
		go func() {
			for i := c; i < rows; i += len(conns) {
				if err := conn.Put("data", key(i), vstore.Values{"skey": sec(i), "payload": "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	var err error
	for range conns {
		err = errors.Join(err, <-errs)
	}
	if err != nil {
		return err
	}
	if err := conns[0].CreateIndex("data", "skey"); err != nil {
		return err
	}
	return conns[0].CreateView(vstore.ViewDef{Name: "bysec", Base: "data", ViewKey: "skey", Materialized: []string{"payload"}})
}

// loadOp returns one iteration of the named workload.
func loadOp(name string, rows int) (func(c *wire.Client, r *rand.Rand) error, error) {
	switch name {
	case "bt-read":
		return func(c *wire.Client, r *rand.Rand) error {
			_, err := c.Get("data", key(r.Intn(rows)), "payload")
			return err
		}, nil
	case "si-read":
		return func(c *wire.Client, r *rand.Rand) error {
			_, err := c.QueryIndex("data", "skey", sec(r.Intn(rows)), "payload")
			return err
		}, nil
	case "mv-read":
		return func(c *wire.Client, r *rand.Rand) error {
			_, err := c.GetView("bysec", sec(r.Intn(rows)), "payload")
			return err
		}, nil
	case "bt-write":
		return func(c *wire.Client, r *rand.Rand) error {
			return c.Put("data", key(r.Intn(rows)), vstore.Values{"payload": "y"})
		}, nil
	case "mv-write":
		return func(c *wire.Client, r *rand.Rand) error {
			return c.Put("data", key(r.Intn(rows)), vstore.Values{"skey": sec(r.Intn(rows * 2))})
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

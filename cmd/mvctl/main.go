// Command mvctl is the store's shell. It creates tables, views and
// indexes, issues reads and writes, and dumps view/versioning internals,
// interactively or from a script piped on stdin. By default it runs an
// embedded cluster; with -addr it drives a running mvserver over the
// wire protocol instead. `mvctl load` is the closed-loop load generator
// for an mvserver (see load.go).
//
//	$ mvctl
//	> create table ticket
//	> create view assignedto on ticket key assignedto materialize status
//	> put ticket 1 assignedto=rliu status=open
//	> getview assignedto rliu
//	> quit
//
//	$ mvctl -addr 127.0.0.1:7654
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"vstore"
	"vstore/internal/wire"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "load" {
		if err := load(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "mvctl load: %v\n", err)
			os.Exit(1)
		}
		return
	}
	addr := flag.String("addr", "", "mvserver address to drive (empty = an embedded cluster)")
	nodes := flag.Int("nodes", 4, "embedded cluster size")
	repl := flag.Int("replication", 3, "embedded replication factor N")
	flag.Parse()

	sh, err := open(*addr, *nodes, *repl, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mvctl: %v\n", err)
		os.Exit(1)
	}
	defer sh.close()
	interactive := true
	if fi, err := os.Stdin.Stat(); err == nil && fi.Mode()&os.ModeCharDevice == 0 {
		interactive = false
	}
	sc := bufio.NewScanner(os.Stdin)
	for {
		if interactive {
			fmt.Print("> ")
		}
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "quit" || line == "exit" {
			return
		}
		if err := sh.execute(line); err != nil {
			fmt.Printf("error: %v\n", err)
		}
	}
}

// target is what the shell's common commands call: the embedded cluster
// or, with -addr, a wire.Client.
type target interface {
	CreateTable(name string) error
	CreateView(def vstore.ViewDef) error
	CreateJoinView(def vstore.JoinViewDef) error
	CreateIndex(table, column string) error
	Put(table, key string, values vstore.Values) error
	Delete(table, key string, columns ...string) error
	Get(table, key string, columns ...string) (vstore.Row, error)
	GetRow(table, key string) (vstore.Row, error)
	GetView(view, viewKey string, columns ...string) ([]vstore.ViewRow, error)
	QueryIndex(table, column, value string, readColumns ...string) ([]vstore.IndexRow, error)
	PruneView(view string, horizonTS int64) (int, error)
	RebuildView(view string) error
	Stats() (vstore.Stats, error)
	Quiesce() error
}

// embedded is the target of an in-process cluster, seen through node
// 0's client. Its reads are traced, for the traces command.
type embedded struct {
	db  *vstore.DB
	c   *vstore.Client
	ctx context.Context // the running command's; execute sets it
}

func (e *embedded) CreateTable(name string) error               { return e.db.CreateTable(name) }
func (e *embedded) CreateView(def vstore.ViewDef) error         { return e.db.CreateView(def) }
func (e *embedded) CreateJoinView(def vstore.JoinViewDef) error { return e.db.CreateJoinView(def) }
func (e *embedded) CreateIndex(table, column string) error      { return e.db.CreateIndex(table, column) }
func (e *embedded) RebuildView(view string) error               { return e.db.RebuildView(e.ctx, view) }
func (e *embedded) Stats() (vstore.Stats, error)                { return e.db.Stats(), nil }
func (e *embedded) Quiesce() error                              { return e.db.QuiesceViews(e.ctx) }

func (e *embedded) Put(table, key string, values vstore.Values) error {
	return e.c.Put(e.ctx, table, key, values)
}

func (e *embedded) Delete(table, key string, columns ...string) error {
	return e.c.Delete(e.ctx, table, key, columns...)
}

func (e *embedded) Get(table, key string, columns ...string) (vstore.Row, error) {
	return e.c.Get(e.ctx, table, key, vstore.WithColumns(columns...), vstore.WithTracing())
}

func (e *embedded) GetRow(table, key string) (vstore.Row, error) {
	return e.c.GetRow(e.ctx, table, key, vstore.WithTracing())
}

func (e *embedded) GetView(view, viewKey string, columns ...string) ([]vstore.ViewRow, error) {
	return e.c.GetView(e.ctx, view, viewKey, vstore.WithColumns(columns...), vstore.WithTracing())
}

func (e *embedded) QueryIndex(table, column, value string, readColumns ...string) ([]vstore.IndexRow, error) {
	return e.c.QueryIndex(e.ctx, table, column, value, vstore.WithColumns(readColumns...), vstore.WithTracing())
}

func (e *embedded) PruneView(view string, horizonTS int64) (int, error) {
	return e.db.PruneViewBefore(e.ctx, view, horizonTS)
}

// shell runs command lines against one target; exactly one of emb and
// remote is set, naming which.
type shell struct {
	t      target
	emb    *embedded
	remote *wire.Client
	out    io.Writer
}

// open starts an embedded cluster of the given shape, or connects to the
// mvserver at addr, and prints which.
func open(addr string, nodes, replication int, out io.Writer) (*shell, error) {
	if addr != "" {
		c, err := wire.Dial(addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		if err := c.Ping(); err != nil {
			c.Close()
			return nil, fmt.Errorf("ping: %w", err)
		}
		fmt.Fprintf(out, "connected to %s. type 'help'.\n", addr)
		return &shell{t: c, remote: c, out: out}, nil
	}
	db, err := vstore.Open(vstore.Config{Nodes: nodes, ReplicationFactor: replication})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "embedded cluster up: %d nodes, N=%d. type 'help'.\n", db.Nodes(), db.ReplicationFactor())
	e := &embedded{db: db, c: db.Client(0)}
	return &shell{t: e, emb: e, out: out}, nil
}

func (sh *shell) close() {
	if sh.emb != nil {
		sh.emb.db.Close()
	} else {
		sh.remote.Close()
	}
}

// Where a command can run.
const (
	anywhere = iota
	embeddedOnly
	remoteOnly
)

// command is one line of the shell: its name (one or two words), its
// arguments' usage, from which execute derives their count, and the
// code that runs it, which returns errUsage for arguments it cannot
// parse.
type command struct {
	name, usage string
	where       int
	run         func(sh *shell, args []string) error
}

var errUsage = errors.New("usage")

// commands is the shell: help lists it in this order.
var commands = []command{
	{"create table", "NAME", anywhere, func(sh *shell, a []string) error { return sh.t.CreateTable(a[0]) }},
	{"create view", "NAME on BASE key COL [prefix=P] [min=A] [max=Z] [materialize COL ...]", anywhere, createView},
	{"create index", "TABLE COL", anywhere, func(sh *shell, a []string) error { return sh.t.CreateIndex(a[0], a[1]) }},
	{"create joinview", "NAME LEFTBASE:COL RIGHTBASE:COL", anywhere, createJoinView},
	{"put", "TABLE KEY COL=VAL [COL=VAL ...]", anywhere, put},
	{"delete", "TABLE KEY COL [COL ...]", anywhere, func(sh *shell, a []string) error { return sh.t.Delete(a[0], a[1], a[2:]...) }},
	{"get", "TABLE KEY [COL ...]", anywhere, get},
	{"getview", "VIEW VIEWKEY", anywhere, getView},
	{"queryindex", "TABLE COL VALUE [READCOL ...]", anywhere, queryIndex},
	{"prune", "VIEW OLDER_THAN_SECONDS", anywhere, prune},
	{"rebuild", "VIEW", anywhere, func(sh *shell, a []string) error { return sh.t.RebuildView(a[0]) }},
	{"stats", "", anywhere, stats},
	{"quiesce", "", anywhere, func(sh *shell, _ []string) error { return sh.t.Quiesce() }},
	{"session begin", "", remoteOnly, func(sh *shell, _ []string) error { return sh.remote.BeginSession() }},
	{"session end", "", remoteOnly, func(sh *shell, _ []string) error { return sh.remote.EndSession() }},
	{"tables", "", embeddedOnly, func(sh *shell, _ []string) error {
		fmt.Fprintln(sh.out, strings.Join(sh.emb.db.Tables(), " "))
		return nil
	}},
	{"views", "", embeddedOnly, views},
	{"traces", "", embeddedOnly, traces},
	{"antientropy", "", embeddedOnly, func(sh *shell, _ []string) error {
		sh.emb.db.RunAntiEntropy()
		return nil
	}},
	{"nodedown", "N", embeddedOnly, func(sh *shell, a []string) error { return setNodeDown(sh, a[0], true) }},
	{"nodeup", "N", embeddedOnly, func(sh *shell, a []string) error { return setNodeDown(sh, a[0], false) }},
	{"drop view", "NAME", embeddedOnly, func(sh *shell, a []string) error { return sh.emb.db.DropView(a[0]) }},
	{"wait view", "NAME", embeddedOnly, func(sh *shell, a []string) error {
		if err := sh.emb.db.WaitViewLive(sh.emb.ctx, a[0]); err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "%s is live\n", a[0])
		return nil
	}},
}

// execute parses one line against the command table and runs it.
func (sh *shell) execute(line string) error {
	fields := strings.Fields(line)
	if len(fields) > 0 && fields[0] == "help" {
		sh.help()
		return nil
	}
	var cmd *command
	var args []string
	for i, c := range commands {
		if strings.HasPrefix(strings.Join(fields, " ")+" ", c.name+" ") {
			cmd, args = &commands[i], fields[strings.Count(c.name, " ")+1:]
			break
		}
	}
	if cmd == nil {
		return fmt.Errorf("unknown command %q (try 'help')", line)
	}
	// The usage's words before the first optional one are required; an
	// optional one lifts the upper bound.
	usage := strings.Fields(cmd.usage)
	required := len(usage)
	for i, w := range usage {
		if strings.HasPrefix(w, "[") {
			required = i
			break
		}
	}
	usageErr := fmt.Errorf("usage: %s %s", cmd.name, cmd.usage)
	if len(args) < required || (required == len(usage) && len(args) > required) {
		return usageErr
	}
	switch {
	case cmd.where == embeddedOnly && sh.emb == nil:
		return fmt.Errorf("%s needs the embedded cluster (run mvctl without -addr)", cmd.name)
	case cmd.where == remoteOnly && sh.remote == nil:
		return fmt.Errorf("%s needs an mvserver (run mvctl -addr)", cmd.name)
	}
	if sh.emb != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		sh.emb.ctx = ctx
	}
	if err := cmd.run(sh, args); !errors.Is(err, errUsage) {
		return err
	}
	return usageErr
}

func (sh *shell) help() {
	fmt.Fprintln(sh.out, "commands:")
	for _, c := range commands {
		line := strings.TrimSpace(c.name + " " + c.usage)
		switch c.where {
		case embeddedOnly:
			line += "   (embedded only)"
		case remoteOnly:
			line += "   (with -addr only)"
		}
		fmt.Fprintf(sh.out, "  %s\n", line)
	}
	fmt.Fprintln(sh.out, "  quit")
}

func createView(sh *shell, args []string) error {
	def := vstore.ViewDef{Name: args[0]}
	sel := func() *vstore.Selection {
		if def.Selection == nil {
			def.Selection = &vstore.Selection{}
		}
		return def.Selection
	}
	for i := 1; i < len(args); i++ {
		word, value, _ := strings.Cut(args[i], "=")
		switch {
		case word == "materialize":
			def.Materialized = args[i+1:]
			i = len(args)
		case (word == "on" || word == "key") && i+1 < len(args):
			i++
			if word == "on" {
				def.Base = args[i]
			} else {
				def.ViewKey = args[i]
			}
		case word == "prefix":
			sel().Prefix = value
		case word == "min":
			sel().Min = value
		case word == "max":
			sel().Max = value
		default:
			return errUsage
		}
	}
	if def.Base == "" || def.ViewKey == "" {
		return errUsage
	}
	return sh.t.CreateView(def)
}

func createJoinView(sh *shell, args []string) error {
	lb, lc, ok1 := strings.Cut(args[1], ":")
	rb, rc, ok2 := strings.Cut(args[2], ":")
	if !ok1 || !ok2 {
		return fmt.Errorf("sides must be BASE:JOINCOL")
	}
	return sh.t.CreateJoinView(vstore.JoinViewDef{
		Name:  args[0],
		Left:  vstore.JoinSide{Base: lb, On: lc},
		Right: vstore.JoinSide{Base: rb, On: rc},
	})
}

func put(sh *shell, args []string) error {
	vals := vstore.Values{}
	for _, kv := range args[2:] {
		col, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("bad column assignment %q", kv)
		}
		vals[col] = val
	}
	return sh.t.Put(args[0], args[1], vals)
}

func get(sh *shell, args []string) error {
	var row vstore.Row
	var err error
	if len(args) > 2 {
		row, err = sh.t.Get(args[0], args[1], args[2:]...)
	} else {
		row, err = sh.t.GetRow(args[0], args[1])
	}
	if err != nil {
		return err
	}
	sh.printRow(row)
	return nil
}

func getView(sh *shell, args []string) error {
	rows, err := sh.t.GetView(args[0], args[1])
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		fmt.Fprintln(sh.out, "(no rows)")
	}
	for _, r := range rows {
		fmt.Fprintf(sh.out, "base=%s ", r.BaseKey)
		sh.printRow(r.Columns)
	}
	return nil
}

func queryIndex(sh *shell, args []string) error {
	rows, err := sh.t.QueryIndex(args[0], args[1], args[2], args[3:]...)
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		fmt.Fprintln(sh.out, "(no rows)")
	}
	for _, r := range rows {
		fmt.Fprintf(sh.out, "key=%s ", r.Key)
		sh.printRow(r.Columns)
	}
	return nil
}

// prune takes its horizon from the shell's wall clock, as
// DB.PruneView does from the store's.
func prune(sh *shell, args []string) error {
	secs, err := strconv.Atoi(args[1])
	if err != nil {
		return err
	}
	horizon := time.Now().Add(-time.Duration(secs) * time.Second).UnixMicro()
	removed, err := sh.t.PruneView(args[0], horizon)
	if err != nil {
		return err
	}
	fmt.Fprintf(sh.out, "pruned %d stale rows\n", removed)
	return nil
}

func stats(sh *shell, _ []string) error {
	s, err := sh.t.Stats()
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(sh.out, string(b))
	return nil
}

func views(sh *shell, _ []string) error {
	db := sh.emb.db
	names := db.Views()
	if len(names) == 0 {
		fmt.Fprintln(sh.out, "(no views)")
		return nil
	}
	lc := db.Stats().Views.Lifecycle
	for _, name := range names {
		state, err := db.ViewState(name)
		if err != nil {
			state = "?"
		}
		line := fmt.Sprintf("%s\t%s", name, state)
		if p, ok := lc[name]; ok && p.State == vstore.ViewBackfilling {
			line += fmt.Sprintf("\t(%d/%d partitions, %d rows scanned", p.PartitionsDone, p.Partitions, p.BackfillScanned)
			if p.Resumed {
				line += ", resumed from checkpoint"
			}
			line += ")"
		}
		fmt.Fprintln(sh.out, line)
	}
	return nil
}

func traces(sh *shell, _ []string) error {
	ts := sh.emb.db.Traces()
	if len(ts) == 0 {
		fmt.Fprintln(sh.out, "(no traces; reads issued here are traced automatically)")
	}
	for i := len(ts) - 1; i >= 0; i-- { // oldest first reads better in a shell
		fmt.Fprint(sh.out, ts[i].Format())
	}
	return nil
}

func setNodeDown(sh *shell, node string, down bool) error {
	n, err := strconv.Atoi(node)
	if err != nil {
		return err
	}
	if n < 0 || n >= sh.emb.db.Nodes() {
		return fmt.Errorf("no node %d (the cluster has %d)", n, sh.emb.db.Nodes())
	}
	sh.emb.db.SetNodeDown(n, down)
	return nil
}

func (sh *shell) printRow(row vstore.Row) {
	if len(row) == 0 {
		fmt.Fprintln(sh.out, "(empty)")
		return
	}
	cols := make([]string, 0, len(row))
	for c := range row {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	parts := make([]string, 0, len(cols))
	for _, c := range cols {
		parts = append(parts, fmt.Sprintf("%s=%s@%d", c, row[c].Value, row[c].Timestamp))
	}
	fmt.Fprintln(sh.out, strings.Join(parts, " "))
}

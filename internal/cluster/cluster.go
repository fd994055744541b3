// Package cluster wires nodes, the consistent-hash ring, a transport
// fabric, per-node coordinators and anti-entropy agents into one
// embedded multi-master cluster — the "small 4 node instance" of the
// paper's evaluation, as a library value.
package cluster

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"vstore/internal/antientropy"
	"vstore/internal/clock"
	"vstore/internal/coord"
	"vstore/internal/lsm"
	"vstore/internal/node"
	"vstore/internal/physical"
	physfs "vstore/internal/physical/fs"
	"vstore/internal/ring"
	"vstore/internal/transport"
	"vstore/internal/wal"
)

// Config describes a cluster.
type Config struct {
	// Nodes is the server count. Default 4 (the paper's testbed).
	Nodes int
	// N is the replication factor. Default 3 (the paper's setting).
	N int
	// VNodes is the virtual-node count per server. Default 64.
	VNodes int
	// Transport is the message fabric; nil selects the zero-latency
	// direct fabric.
	Transport transport.Transport
	// Workers bounds each node's concurrent request execution
	// (0 = unbounded).
	Workers int
	// Service sets simulated per-operation costs on every node.
	Service node.ServiceTimes
	// FlushBytes / CompactAt tune the per-table LSM engines.
	FlushBytes int64
	CompactAt  int
	// RequestTimeout bounds coordinator fan-out rounds.
	RequestTimeout time.Duration
	// HintReplayInterval controls hinted-handoff retry; negative
	// disables.
	HintReplayInterval time.Duration
	// DisableReadRepair turns off coordinator read repair.
	DisableReadRepair bool
	// AntiEntropyInterval enables periodic replica synchronization
	// when positive.
	AntiEntropyInterval time.Duration
	// AntiEntropyBuckets is the digest resolution. Default 64.
	AntiEntropyBuckets int
	// Seed makes storage-engine internals reproducible.
	Seed int64
	// Clock drives node service times, coordinator timeouts and
	// anti-entropy tickers; nil uses the wall clock.
	Clock clock.Clock
	// Backend, when non-nil, makes every node durable: node i's WAL,
	// sstable runs and MANIFEST live under the backend's "node-i"
	// namespace, and Open recovers them before the cluster serves.
	Backend physical.Backend
	// Dir is sugar for a filesystem backend rooted at Dir
	// (physical/fs). Setting both Dir and Backend is an error.
	Dir string
	// Durability tunes the per-node WALs (fsync policy, interval,
	// segment size, latency metrics) when the cluster is durable.
	Durability wal.Options
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.N <= 0 {
		c.N = 3
	}
	if c.N > c.Nodes {
		c.N = c.Nodes
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.Transport == nil {
		c.Transport = transport.NewDirect()
	}
	return c
}

// NodeRecovery is what one durable node restored at Open.
type NodeRecovery struct {
	Node    transport.NodeID
	Stats   wal.RecoveryStats
	Intents []wal.Intent
}

// Cluster is an embedded multi-node record store.
type Cluster struct {
	cfg    Config
	Ring   *ring.Ring
	Trans  transport.Transport
	Nodes  []*node.Node
	Coords []*coord.Coordinator
	Agents []*antientropy.Agent
	// Storages holds each node's durable storage root (nil entries in
	// memory mode); Recoveries what each restored at Open.
	Storages   []*wal.Storage
	Recoveries []NodeRecovery

	mu      sync.RWMutex
	tables  map[string]bool
	indexes map[string][]string // table → indexed columns
}

// New builds and starts a memory-mode cluster; it panics on a durable
// config whose storage fails to open (use Open to handle that).
func New(cfg Config) *Cluster {
	c, err := Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("cluster: %v", err))
	}
	return c
}

// Open builds and starts a cluster, opening and recovering each
// node's durable storage when cfg.Backend (or its Dir sugar) is set.
func Open(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	backend := cfg.Backend
	if cfg.Dir != "" {
		if backend != nil {
			return nil, fmt.Errorf("cluster: set Backend or Dir, not both")
		}
		backend = physfs.New(cfg.Dir)
	}
	ids := make([]transport.NodeID, cfg.Nodes)
	for i := range ids {
		ids[i] = transport.NodeID(i)
	}
	c := &Cluster{
		cfg:     cfg,
		Ring:    ring.New(ids, cfg.VNodes),
		Trans:   cfg.Transport,
		tables:  map[string]bool{},
		indexes: map[string][]string{},
	}
	placement := func(table, row string) []transport.NodeID {
		return c.Ring.ReplicasForRow(table, row, cfg.N)
	}
	for _, id := range ids {
		var storage *wal.Storage
		if backend != nil {
			var err error
			storage, err = wal.OpenStorage(physical.Sub(backend, NodeSub(id)), cfg.Durability)
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("open node %d storage: %w", id, err)
			}
		}
		n := node.New(node.Options{
			ID:      id,
			Workers: cfg.Workers,
			Service: cfg.Service,
			LSM:     lsm.Options{FlushBytes: cfg.FlushBytes, CompactAt: cfg.CompactAt, Seed: cfg.Seed + int64(id)},
			Clock:   cfg.Clock,
			Durable: storage,
		})
		if storage != nil {
			stats, intents, err := n.Recover()
			if err != nil {
				_ = storage.Close() // already failing; recovery error wins
				c.Close()
				return nil, fmt.Errorf("recover node %d: %w", id, err)
			}
			c.Recoveries = append(c.Recoveries, NodeRecovery{Node: id, Stats: stats, Intents: intents})
		}
		n.SetPlacement(placement)
		c.Trans.Register(id, n)
		c.Nodes = append(c.Nodes, n)
		c.Storages = append(c.Storages, storage)
		c.Coords = append(c.Coords, coord.New(id, c.Ring, c.Trans, coord.Options{
			N:                  cfg.N,
			RequestTimeout:     cfg.RequestTimeout,
			HintReplayInterval: cfg.HintReplayInterval,
			DisableReadRepair:  cfg.DisableReadRepair,
			Clock:              cfg.Clock,
		}))
		agent := antientropy.New(n, c.Trans, antientropy.Options{
			Buckets:  cfg.AntiEntropyBuckets,
			Interval: cfg.AntiEntropyInterval,
			Tables:   c.Tables,
			Peers:    c.Ring.Nodes,
			Clock:    cfg.Clock,
		})
		agent.Start()
		c.Agents = append(c.Agents, agent)
	}
	return c, nil
}

// NodeSub returns node id's storage namespace within a cluster
// backend ("node-<id>").
func NodeSub(id transport.NodeID) string {
	return fmt.Sprintf("node-%d", id)
}

// NodeDir returns node id's storage root under a cluster directory
// (the filesystem shape of NodeSub, for fs-backed clusters).
func NodeDir(dir string, id transport.NodeID) string {
	return filepath.Join(dir, NodeSub(id))
}

// Close shuts down background activity, then syncs and closes every
// node's durable storage so a clean shutdown persists all logged
// state.
func (c *Cluster) Close() {
	for _, a := range c.Agents {
		a.Close()
	}
	for _, co := range c.Coords {
		co.Close()
	}
	for _, s := range c.Storages {
		if s != nil {
			_ = s.Close() // best-effort final sync
		}
	}
}

// Size returns the node count.
func (c *Cluster) Size() int { return len(c.Nodes) }

// N returns the replication factor.
func (c *Cluster) N() int { return c.cfg.N }

// CreateTable registers a table name. Storage is created lazily on
// each node; registration feeds anti-entropy and validation.
func (c *Cluster) CreateTable(name string) error {
	if name == "" {
		return fmt.Errorf("cluster: empty table name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tables[name] {
		return fmt.Errorf("cluster: table %q already exists", name)
	}
	c.tables[name] = true
	return nil
}

// DropTable deregisters a table and discards its storage on every
// node — in-memory stores and, in durable mode, manifest entries, run
// files and WAL segments. Dropping an unknown name is an error;
// per-node drops after the first failure still run so a partial drop
// removes as much as it can (the caller retries for the rest).
func (c *Cluster) DropTable(name string) error {
	c.mu.Lock()
	if !c.tables[name] {
		c.mu.Unlock()
		return fmt.Errorf("cluster: unknown table %q", name)
	}
	delete(c.tables, name)
	c.mu.Unlock()
	var first error
	for _, n := range c.Nodes {
		if err := n.DropTable(name); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// HasTable reports whether the table is registered.
func (c *Cluster) HasTable(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tables[name]
}

// Tables returns the registered table names, sorted.
func (c *Cluster) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for t := range c.tables {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// CreateIndex declares a native secondary index on every node.
func (c *Cluster) CreateIndex(table, column string) error {
	if !c.HasTable(table) {
		return fmt.Errorf("cluster: unknown table %q", table)
	}
	for _, n := range c.Nodes {
		n.CreateIndex(table, column)
	}
	c.mu.Lock()
	found := false
	for _, col := range c.indexes[table] {
		if col == column {
			found = true
		}
	}
	if !found {
		c.indexes[table] = append(c.indexes[table], column)
	}
	c.mu.Unlock()
	return nil
}

// Indexes returns the declared secondary indexes per table (for
// schema persistence).
func (c *Cluster) Indexes() map[string][]string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string][]string, len(c.indexes))
	for t, cols := range c.indexes {
		out[t] = append([]string(nil), cols...)
	}
	return out
}

// Coordinator returns node i's coordinator; clients bind to one.
func (c *Cluster) Coordinator(i int) *coord.Coordinator {
	return c.Coords[i%len(c.Coords)]
}

// SetNodeDown injects or heals a node failure.
func (c *Cluster) SetNodeDown(id transport.NodeID, down bool) {
	c.Trans.SetDown(id, down)
}

// RunAntiEntropyRound synchronously runs one full anti-entropy round
// on every node (tests and deterministic convergence).
func (c *Cluster) RunAntiEntropyRound() {
	for _, a := range c.Agents {
		a.RunRound()
	}
}

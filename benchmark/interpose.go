package main

import (
	"strings"
	"sync/atomic"

	"vstore/internal/clock"
	"vstore/internal/physical"
	"vstore/internal/transport"
)

// The two seams the harness can interpose on without editing the
// program: the message fabric between coordinators and nodes, and the
// physical storage backend under the durability layer.

// Request kinds the recording transport tells apart.
const (
	kindGet = iota
	kindGetDigest
	kindMultiGet
	kindPut
	kindOther // read repair, hints, anti-entropy, index queries
	numKinds
)

// recTransport wraps the direct fabric and counts every call that
// crosses it, by request kind and by whether it addresses the base
// table or a view table. Inside a Put, base-table calls are the path
// the client waits for; view-table calls are asynchronous maintenance.
//
// It implements transport.SyncCaller as well as transport.Transport:
// a coordinator that does not find SyncCaller on its fabric silently
// leaves its synchronous fast path, and the harness would then time a
// different program.
type recTransport struct {
	inner *transport.Direct
	calls [numKinds][2]atomic.Int64 // [kind][0 base, 1 view]
}

var (
	_ transport.Transport  = (*recTransport)(nil)
	_ transport.SyncCaller = (*recTransport)(nil)
)

func newRecTransport() *recTransport { return &recTransport{inner: transport.NewDirect()} }

func (t *recTransport) count(req transport.Request) {
	kind, table := kindOther, ""
	switch r := req.(type) {
	case transport.GetReq:
		kind, table = kindGet, r.Table
	case transport.GetDigestReq:
		kind, table = kindGetDigest, r.Table
	case transport.MultiGetReq:
		kind, table = kindMultiGet, r.Table
	case transport.PutReq:
		kind, table = kindPut, r.Table
	}
	view := 0
	if table != baseTable {
		view = 1
	}
	t.calls[kind][view].Add(1)
}

func (t *recTransport) Register(id transport.NodeID, h transport.Handler) { t.inner.Register(id, h) }
func (t *recTransport) SetDown(id transport.NodeID, down bool)            { t.inner.SetDown(id, down) }
func (t *recTransport) Partition(a, b transport.NodeID, blocked bool) {
	t.inner.Partition(a, b, blocked)
}

func (t *recTransport) Call(from, to transport.NodeID, req transport.Request) <-chan transport.Result {
	t.count(req)
	return t.inner.Call(from, to, req)
}

func (t *recTransport) CallSync(from, to transport.NodeID, req transport.Request) transport.Result {
	t.count(req)
	return t.inner.CallSync(from, to, req)
}

// callCounts is a snapshot of a recTransport's counters.
type callCounts [numKinds][2]int64

func (t *recTransport) snapshot() callCounts {
	var c callCounts
	for k := range c {
		for v := range c[k] {
			c[k][v] = t.calls[k][v].Load()
		}
	}
	return c
}

func (c callCounts) sub(prev callCounts) callCounts {
	for k := range c {
		for v := range c[k] {
			c[k][v] -= prev[k][v]
		}
	}
	return c
}

// kind is the number of calls of one kind, to base and view tables.
func (c callCounts) kind(k int) int64 { return c[k][0] + c[k][1] }

// view is the number of calls of every kind that addressed a view table.
func (c callCounts) view() int64 {
	var n int64
	for k := range c {
		n += c[k][1]
	}
	return n
}

// countingBackend wraps a physical.Backend and counts the operations
// that reach storage, and times the syncs. physical.Sub namespaces by
// wrapping, so every node's and every log's traffic arrives here under
// its full name, and errors pass through untouched so
// physical.IsNotExist keeps working on them.
type countingBackend struct {
	inner physical.Backend
	n     *[numBackendCounts]atomic.Int64
}

// What the counting backend counts.
const (
	cAppends = iota
	cAppendBytes
	cSyncs
	cSyncNs
	cAtomics     // WriteFileAtomic calls
	cAtomicBytes // and the bytes they wrote
	cCheckpoints // atomic writes under the online backfill's checkpoint namespace
	numBackendCounts
)

// backendCounts is a snapshot of a countingBackend's counters.
type backendCounts [numBackendCounts]int64

func newCountingBackend(inner physical.Backend) *countingBackend {
	return &countingBackend{inner: inner, n: new([numBackendCounts]atomic.Int64)}
}

func (b *countingBackend) snapshot() backendCounts {
	var c backendCounts
	for i := range c {
		c[i] = b.n[i].Load()
	}
	return c
}

func (c backendCounts) sub(prev backendCounts) backendCounts {
	for i := range c {
		c[i] -= prev[i]
	}
	return c
}

func (b *countingBackend) Create(name string) (physical.File, error) {
	f, err := b.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{inner: f, n: b.n}, nil
}

func (b *countingBackend) ReadFile(name string) ([]byte, error) { return b.inner.ReadFile(name) }

func (b *countingBackend) WriteFileAtomic(name string, data []byte) error {
	b.n[cAtomics].Add(1)
	b.n[cAtomicBytes].Add(int64(len(data)))
	if strings.HasPrefix(name, "backfill/") {
		b.n[cCheckpoints].Add(1)
	}
	return b.inner.WriteFileAtomic(name, data)
}

func (b *countingBackend) List(dir string) ([]string, error) { return b.inner.List(dir) }
func (b *countingBackend) Remove(name string) error          { return b.inner.Remove(name) }

type countingFile struct {
	inner physical.File
	n     *[numBackendCounts]atomic.Int64
}

func (f *countingFile) Append(p []byte) (int, error) {
	n, err := f.inner.Append(p)
	f.n[cAppends].Add(1)
	f.n[cAppendBytes].Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	start := clock.Wall.Now()
	err := f.inner.Sync()
	f.n[cSyncNs].Add(int64(clock.Wall.Now().Sub(start)))
	f.n[cSyncs].Add(1)
	return err
}

func (f *countingFile) Close() error { return f.inner.Close() }

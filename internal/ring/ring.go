// Package ring implements consistent hashing with virtual nodes, the
// placement policy that decides which N servers replicate each record.
// The paper's system model only requires that "placement of a record's
// copies is determined by its key value"; we use the standard
// Dynamo/Cassandra token ring.
package ring

import (
	"fmt"
	"sort"
	"sync"
)

// NodeID identifies a server in the cluster.
type NodeID int32

// Hash64 is the ring's hash function, exposed so other components
// (dedicated propagators, anti-entropy bucketing) can partition work
// the same way the ring partitions data. FNV-1a alone distributes
// similar short keys poorly, so its output is passed through a
// splitmix64 finalizer for avalanche. The FNV loop is written out: it
// runs on every placement and every row lock, and hash/fnv costs a
// hasher and a byte-slice copy per call. Placement depends on these
// values never changing.
func Hash64(s string) uint64 {
	return mix64(fnv1a(fnvOffset, s))
}

// HashJoined returns Hash64(a + "\x00" + b) without building the
// string.
func HashJoined(a, b string) uint64 {
	h := fnv1a(fnvOffset, a)
	h *= fnvPrime // the separator byte: h ^ 0 is h
	return mix64(fnv1a(h, b))
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnv1a folds s into the 64-bit FNV-1a state h.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

type token struct {
	hash uint64
	node NodeID
}

// Ring is a consistent-hash token ring. Safe for concurrent use.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	tokens []token
	nodes  map[NodeID]bool
	// sets caches, per token index, the replica set a walk from that
	// token finds for n = setsN; built lazily, dropped on Add and
	// Remove. The cached slices are handed out shared.
	sets  [][]NodeID
	setsN int
}

// New builds a ring over the given nodes, placing vnodes virtual
// tokens per node (default 64 if vnodes <= 0).
func New(nodes []NodeID, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	r := &Ring{vnodes: vnodes, nodes: map[NodeID]bool{}}
	for _, n := range nodes {
		r.addLocked(n)
	}
	sort.Slice(r.tokens, func(i, j int) bool { return less(r.tokens[i], r.tokens[j]) })
	return r
}

func less(a, b token) bool {
	if a.hash != b.hash {
		return a.hash < b.hash
	}
	return a.node < b.node
}

func (r *Ring) addLocked(n NodeID) {
	if r.nodes[n] {
		return
	}
	r.nodes[n] = true
	for v := 0; v < r.vnodes; v++ {
		r.tokens = append(r.tokens, token{hash: Hash64(fmt.Sprintf("node-%d-vnode-%d", n, v)), node: n})
	}
}

// Add inserts a node (with its virtual tokens) into the ring.
func (r *Ring) Add(n NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.addLocked(n)
	r.sets, r.setsN = nil, 0
	sort.Slice(r.tokens, func(i, j int) bool { return less(r.tokens[i], r.tokens[j]) })
}

// Remove deletes a node from the ring.
func (r *Ring) Remove(n NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.nodes[n] {
		return
	}
	delete(r.nodes, n)
	r.sets, r.setsN = nil, 0
	kept := r.tokens[:0]
	for _, t := range r.tokens {
		if t.node != n {
			kept = append(kept, t)
		}
	}
	r.tokens = kept
}

// Nodes returns the current membership, sorted.
func (r *Ring) Nodes() []NodeID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]NodeID, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Size returns the number of member nodes.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// ReplicasFor returns the n distinct nodes responsible for key, in
// ring-walk order starting at the key's token. The first node is the
// "primary" only in the sense of walk order — the system is
// multi-master and all replicas are equal. If n exceeds the member
// count, all members are returned. The slice is shared with every
// other caller placed on the same token: it must not be modified.
func (r *Ring) ReplicasFor(key string, n int) []NodeID {
	return r.replicasAt(Hash64(key), n)
}

// ReplicasForRow is ReplicasFor(table + "\x00" + row, n) without
// building the key: the one placement function of the store. Tables
// spread independently around the ring; in particular a view table's
// rows are placed by *view key*, which is the whole point of the view.
func (r *Ring) ReplicasForRow(table, row string, n int) []NodeID {
	return r.replicasAt(HashJoined(table, row), n)
}

// replicasAt returns the replica set of the first token at or after
// hash h, from the cache when it holds that token's set for n.
func (r *Ring) replicasAt(h uint64, n int) []NodeID {
	r.mu.RLock()
	if len(r.tokens) == 0 || n <= 0 {
		r.mu.RUnlock()
		return nil
	}
	if start := r.tokenAt(h); r.setsN == n && r.sets[start] != nil {
		set := r.sets[start]
		r.mu.RUnlock()
		return set
	}
	r.mu.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	// Membership may have moved while no lock was held: place again.
	if len(r.tokens) == 0 {
		return nil
	}
	if r.setsN != n {
		r.sets, r.setsN = make([][]NodeID, len(r.tokens)), n
	}
	start := r.tokenAt(h)
	if r.sets[start] == nil {
		r.sets[start] = r.walk(start, n)
	}
	return r.sets[start]
}

// tokenAt returns the index of the first token at or after hash h,
// wrapping around past the last. The ring must have tokens.
func (r *Ring) tokenAt(h uint64) int {
	return sort.Search(len(r.tokens), func(i int) bool { return r.tokens[i].hash >= h }) % len(r.tokens)
}

// walk collects the n distinct nodes met walking the ring from token
// index start. The result's capacity is its length, so an append to it
// copies rather than writing into the cache.
func (r *Ring) walk(start, n int) []NodeID {
	n = min(n, len(r.nodes))
	out := make([]NodeID, 0, n)
walk:
	for i := 0; len(out) < n && i < len(r.tokens); i++ {
		t := r.tokens[(start+i)%len(r.tokens)]
		for _, have := range out { // n is the replication factor: a handful
			if have == t.node {
				continue walk
			}
		}
		out = append(out, t.node)
	}
	return out
}

package ring

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func ids(n int) []NodeID {
	out := make([]NodeID, n)
	for i := range out {
		out[i] = NodeID(i)
	}
	return out
}

func TestReplicasDistinctAndStable(t *testing.T) {
	r := New(ids(4), 32)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		reps := r.ReplicasFor(key, 3)
		if len(reps) != 3 {
			t.Fatalf("got %d replicas", len(reps))
		}
		seen := map[NodeID]bool{}
		for _, n := range reps {
			if seen[n] {
				t.Fatalf("duplicate replica %d for %q", n, key)
			}
			seen[n] = true
		}
		// Placement must be deterministic.
		again := r.ReplicasFor(key, 3)
		for j := range reps {
			if reps[j] != again[j] {
				t.Fatalf("placement unstable for %q", key)
			}
		}
	}
}

func TestReplicasClampedToMembership(t *testing.T) {
	r := New(ids(2), 16)
	reps := r.ReplicasFor("k", 5)
	if len(reps) != 2 {
		t.Fatalf("got %d replicas from 2-node ring", len(reps))
	}
	if got := r.ReplicasFor("k", 0); got != nil {
		t.Fatal("n=0 should return nil")
	}
}

func TestEmptyRing(t *testing.T) {
	r := New(nil, 16)
	if got := r.ReplicasFor("k", 3); got != nil {
		t.Fatal("empty ring should return nil")
	}
	if r.Size() != 0 {
		t.Fatal("empty ring size")
	}
}

func TestBalance(t *testing.T) {
	r := New(ids(4), 128)
	counts := map[NodeID]int{}
	const keys = 20000
	for i := 0; i < keys; i++ {
		counts[r.ReplicasFor(fmt.Sprintf("key-%d", i), 1)[0]]++
	}
	want := keys / 4
	for n, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("node %d owns %d of %d keys; ring badly unbalanced: %v", n, c, keys, counts)
		}
	}
}

func TestAddRemove(t *testing.T) {
	r := New(ids(3), 32)
	before := map[string][]NodeID{}
	keys := make([]string, 500)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		before[keys[i]] = r.ReplicasFor(keys[i], 2)
	}
	r.Add(NodeID(3))
	if r.Size() != 4 {
		t.Fatalf("size after add = %d", r.Size())
	}
	moved := 0
	for _, k := range keys {
		after := r.ReplicasFor(k, 2)
		if after[0] != before[k][0] {
			moved++
		}
	}
	// Consistent hashing: only ~1/4 of primaries should move.
	if moved > len(keys)/2 {
		t.Fatalf("%d/%d primaries moved after adding one node", moved, len(keys))
	}
	r.Remove(NodeID(3))
	for _, k := range keys {
		after := r.ReplicasFor(k, 2)
		for i := range after {
			if after[i] != before[k][i] {
				t.Fatalf("placement did not revert after remove for %q", k)
			}
		}
	}
	// Removing an absent node is a no-op.
	r.Remove(NodeID(99))
	if r.Size() != 3 {
		t.Fatal("remove of absent node changed membership")
	}
}

func TestAddIdempotent(t *testing.T) {
	r := New(ids(2), 16)
	r.Add(NodeID(1))
	if r.Size() != 2 {
		t.Fatalf("duplicate add changed size to %d", r.Size())
	}
}

func TestNodesSorted(t *testing.T) {
	r := New([]NodeID{3, 1, 2}, 8)
	ns := r.Nodes()
	if len(ns) != 3 || ns[0] != 1 || ns[1] != 2 || ns[2] != 3 {
		t.Fatalf("Nodes = %v", ns)
	}
}

func BenchmarkReplicasFor(b *testing.B) {
	r := New(ids(16), 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ReplicasFor(fmt.Sprintf("key-%d", i%4096), 3)
	}
}

// TestHashValuesPinned holds Hash64 to values recorded from the
// hash/fnv implementation it replaced. Replica placement, propagator
// partitioning, anti-entropy buckets and the nodes' row-lock stripes
// all hang off these numbers: a change here silently re-homes every
// row of every deployed store.
func TestHashValuesPinned(t *testing.T) {
	pinned := []struct {
		s    string
		want uint64
	}{
		{"", 0xc3817c016ba4ff30},
		{"a", 0x5f29c2aadd9b8527},
		{"data\x00data-00000001", 0x6107f1cbf9daba00},
		{"bysec\x00sec-00000042", 0xb736eb64aceae0},
		{"node-3-vnode-17", 0xd2eea81291198d3},
		{"t\x00", 0xff1ed6a5ec4a083},
		{"\x00row", 0x1117abafb8cd5b6f},
		{"héllo wörld \xff\xfe", 0x2db6757dce537e4b},
	}
	for _, p := range pinned {
		if got := Hash64(p.s); got != p.want {
			t.Errorf("Hash64(%q) = %#x, want %#x", p.s, got, p.want)
		}
		for i := 0; i < len(p.s); i++ {
			if p.s[i] == 0 {
				if got := HashJoined(p.s[:i], p.s[i+1:]); got != p.want {
					t.Errorf("HashJoined(%q, %q) = %#x, want %#x", p.s[:i], p.s[i+1:], got, p.want)
				}
			}
		}
	}
	r := New([]NodeID{0, 1, 2, 3}, 0)
	for key, want := range map[string][]NodeID{
		"data\x00data-00000001": {0, 3, 2},
		"bysec\x00sec-00000042": {0, 2, 1},
		"x":                     {1, 3, 0},
	} {
		if got := r.ReplicasFor(key, 3); !reflect.DeepEqual(got, want) {
			t.Errorf("ReplicasFor(%q) = %v, want %v", key, got, want)
		}
	}
	if got := testing.AllocsPerRun(100, func() { r.ReplicasFor("data\x00data-00000001", 3) }); got > 0 {
		t.Errorf("ReplicasFor allocates %v times, want 0: the set is cached", got)
	}
}

// TestReplicasForRowMatchesJoinedKey pins the store's one placement
// function to the joined-key form every earlier version hashed:
// coordinator placement, the simulator's traces and on-disk layouts all
// assume ReplicasForRow(t, r, n) == ReplicasFor(t+"\x00"+r, n).
func TestReplicasForRowMatchesJoinedKey(t *testing.T) {
	r := New(ids(7), 32)
	for _, c := range []struct{ table, row string }{
		{"data", "data-00000001"},
		{"bysec", "sec-00000042"},
		{"", ""},
		{"t", ""},
		{"", "row"},
		{"a\x00b", "c"},
		{"a", "b\x00c"},
		{"\x00", "\x00\x00"},
		{"héllo", "wörld \xff\xfe"},
	} {
		for _, n := range []int{0, 1, 3, 7, 9} {
			got, want := r.ReplicasForRow(c.table, c.row, n), r.ReplicasFor(c.table+"\x00"+c.row, n)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("ReplicasForRow(%q, %q, %d) = %v, want %v", c.table, c.row, n, got, want)
			}
		}
	}
	if got := testing.AllocsPerRun(100, func() { r.ReplicasForRow("data", "data-00000001", 3) }); got > 0 {
		t.Errorf("ReplicasForRow allocates %v times, want 0: the set is cached", got)
	}
}

// TestCachedSetsFollowMembership checks the replica-set cache against
// rings built from scratch: after Add and Remove every key places as
// it would on a fresh ring of the same members, and a cached set is
// clipped to its length, so a caller's append copies instead of writing
// into the cache.
func TestCachedSetsFollowMembership(t *testing.T) {
	r := New(ids(3), 16)
	check := func(members []NodeID) {
		t.Helper()
		fresh := New(members, 16)
		for i := 0; i < 200; i++ {
			key := fmt.Sprintf("key-%d", i)
			got, want := r.ReplicasFor(key, 3), fresh.ReplicasFor(key, 3)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("members %v: ReplicasFor(%q) = %v, want %v", members, key, got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("ReplicasFor(%q) has capacity %d beyond its %d nodes", key, cap(got), len(got))
			}
		}
	}
	check(ids(3))
	r.Add(3)
	check(ids(4))
	r.Remove(1)
	check([]NodeID{0, 2, 3})
}

// TestCachedSetsUnderConcurrentMembership places rows from several
// goroutines while nodes join and leave: every set handed out must be
// n distinct members, whichever membership it was built under.
func TestCachedSetsUnderConcurrentMembership(t *testing.T) {
	r := New(ids(4), 16)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				set := r.ReplicasForRow("t", fmt.Sprintf("row-%d", i%500), 3)
				if len(set) != 3 || set[0] == set[1] || set[0] == set[2] || set[1] == set[2] {
					t.Errorf("replica set %v", set)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		r.Add(4)
		r.Remove(4)
	}
	close(stop)
	wg.Wait()
}

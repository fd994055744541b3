package skiplist

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"vstore/internal/race"
)

// set stores value under key.
func set[V any](l *List[V], key string, value V) {
	v, _ := l.Upsert([]byte(key))
	*v = value
}

// get looks key up with a seek: the list has no point lookup of its
// own, since the memtable indexes its rows itself.
func get[V any](l *List[V], key []byte) (V, bool) {
	if it := l.Seek(key); it.Valid() && bytes.Equal(it.Key(), key) {
		return it.Value(), true
	}
	var zero V
	return zero, false
}

func TestEmpty(t *testing.T) {
	l := New[int](1)
	if l.Len() != 0 {
		t.Fatal("new list not empty")
	}
	if _, ok := get(l, []byte("x")); ok {
		t.Fatal("Get on empty list returned ok")
	}
	if it := l.Iter(); it.Valid() {
		t.Fatal("iterator on empty list is valid")
	}
}

func TestSetGet(t *testing.T) {
	l := New[int](1)
	set(l, "b", 2)
	set(l, "a", 1)
	set(l, "c", 3)
	for k, want := range map[string]int{"a": 1, "b": 2, "c": 3} {
		got, ok := get(l, []byte(k))
		if !ok || got != want {
			t.Fatalf("Get(%q) = %v,%v", k, got, ok)
		}
	}
	if _, ok := get(l, []byte("d")); ok {
		t.Fatal("Get of absent key returned ok")
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestUpsertReportsInsertAndKeepsValue(t *testing.T) {
	l := New[int](1)
	v, inserted := l.Upsert([]byte("counter"))
	if !inserted || *v != 0 {
		t.Fatalf("first Upsert = %d, %v; want a fresh zero value", *v, inserted)
	}
	*v += 5
	v, inserted = l.Upsert([]byte("counter"))
	if inserted || *v != 5 {
		t.Fatalf("second Upsert = %d, %v; want the stored 5", *v, inserted)
	}
	*v += 7
	if got, _ := get(l, []byte("counter")); got != 12 {
		t.Fatalf("merged value = %v", got)
	}
	if l.Len() != 1 {
		t.Fatalf("Len after overwrite = %d", l.Len())
	}
}

func TestOrderedIteration(t *testing.T) {
	l := New[int](7)
	r := rand.New(rand.NewSource(3))
	want := make([]string, 0, 500)
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key-%04d", r.Intn(2000))
		if !seen[k] {
			seen[k] = true
			want = append(want, k)
		}
		set(l, k, i)
	}
	sort.Strings(want)
	var got []string
	for it := l.Iter(); it.Valid(); it.Next() {
		got = append(got, string(it.Key()))
	}
	if len(got) != len(want) {
		t.Fatalf("iterated %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %q want %q", i, got[i], want[i])
		}
	}
}

func TestSeek(t *testing.T) {
	l := New[string](2)
	for _, k := range []string{"b", "d", "f"} {
		set(l, k, k)
	}
	cases := []struct{ seek, want string }{
		{"a", "b"}, {"b", "b"}, {"c", "d"}, {"f", "f"}, {"g", ""},
	}
	for _, c := range cases {
		it := l.Seek([]byte(c.seek))
		if c.want == "" {
			if it.Valid() {
				t.Fatalf("Seek(%q) should be exhausted, at %q", c.seek, it.Key())
			}
			continue
		}
		if !it.Valid() || string(it.Key()) != c.want || it.Value() != c.want {
			t.Fatalf("Seek(%q) landed at %v, want %q", c.seek, it, c.want)
		}
	}
}

// TestKeyIsKept checks that an inserted key is the caller's slice,
// not a copy: the memtable hands the list keys out of its own arena.
func TestKeyIsKept(t *testing.T) {
	l := New[int](1)
	k := []byte("kept")
	l.Upsert(k)
	if it := l.Iter(); !it.Valid() || &it.Key()[0] != &k[0] {
		t.Fatal("list copied the caller's key")
	}
	if _, inserted := l.Upsert([]byte("kept")); inserted {
		t.Fatal("an equal key inserted twice")
	}
}

// TestKeysSurviveSlabGrowth fills several node slabs, one key larger
// than the rest among them, and checks that no earlier key moved or
// was lost.
func TestKeysSurviveSlabGrowth(t *testing.T) {
	l := New[int](5)
	var held [][]byte
	n := 3*nodeSlab + 10
	for i := 0; i < n; i++ {
		set(l, fmt.Sprintf("key-%012d", i), i)
		if i == n/2 {
			set(l, "big-"+string(bytes.Repeat([]byte{'x'}, 1<<15)), -1)
		}
	}
	for it := l.Iter(); it.Valid(); it.Next() {
		held = append(held, it.Key())
	}
	if len(held) != n+1 {
		t.Fatalf("iterated %d keys, want %d", len(held), n+1)
	}
	for i := 0; i < n; i++ {
		if got, ok := get(l, []byte(fmt.Sprintf("key-%012d", i))); !ok || got != i {
			t.Fatalf("key %d = %v,%v after slab growth", i, got, ok)
		}
	}
	if !sort.SliceIsSorted(held, func(i, j int) bool { return bytes.Compare(held[i], held[j]) < 0 }) {
		t.Fatal("aliased keys out of order")
	}
}

// TestAgainstMap drives upserts and lookups — anywhere in the list, on
// the key just touched, among its neighbours — against a map.
func TestAgainstMap(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 99} {
		l := New[int](seed)
		r := rand.New(rand.NewSource(seed))
		oracle := map[string]int{}
		last := 0
		for i := 0; i < 20000; i++ {
			var k int
			switch r.Intn(4) {
			case 0:
				k = r.Intn(3000) // anywhere
			case 1:
				k = last // same key
			default:
				k = last + r.Intn(9) - 4 // a neighbour, either side
			}
			last = k
			key := fmt.Sprintf("%05d", k)
			if r.Intn(2) == 0 {
				v, inserted := l.Upsert([]byte(key))
				if _, had := oracle[key]; had == inserted {
					t.Fatalf("seed %d step %d: Upsert(%q) inserted=%v, oracle had=%v", seed, i, key, inserted, had)
				}
				*v = i
				oracle[key] = i
				continue
			}
			got, ok := get(l, []byte(key))
			want, had := oracle[key]
			if ok != had || got != want {
				t.Fatalf("seed %d step %d: Get(%q) = %v,%v, oracle %v,%v", seed, i, key, got, ok, want, had)
			}
		}
		checkAgainst(t, l, oracle)
	}
}

func checkAgainst(t *testing.T, l *List[int], oracle map[string]int) {
	t.Helper()
	if l.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle %d", l.Len(), len(oracle))
	}
	for k, want := range oracle {
		if got, ok := get(l, []byte(k)); !ok || got != want {
			t.Fatalf("Get(%q) = %v,%v want %d", k, got, ok, want)
		}
	}
	// Iteration must visit every oracle key exactly once, in order.
	var prev []byte
	n := 0
	for it := l.Iter(); it.Valid(); it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatalf("keys out of order: %q then %q", prev, it.Key())
		}
		if oracle[string(it.Key())] != it.Value() {
			t.Fatalf("iterator at %q holds %d, oracle %d", it.Key(), it.Value(), oracle[string(it.Key())])
		}
		prev = it.Key()
		n++
	}
	if n != len(oracle) {
		t.Fatalf("iterated %d, want %d", n, len(oracle))
	}
}

// TestHeightDistribution checks the one-draw tower heights: a quarter
// of the nodes reach each further level, none passes maxHeight.
func TestHeightDistribution(t *testing.T) {
	l := New[int](42)
	const n = 1 << 16
	var counts [maxHeight + 1]int
	for i := 0; i < n; i++ {
		h := l.randomHeight()
		if h < 1 || h > maxHeight {
			t.Fatalf("height %d out of range", h)
		}
		counts[h]++
	}
	atLeast := n
	for h := 1; h <= 4; h++ {
		want := float64(n) / float64(int(1)<<(pBits*(h-1)))
		if got := float64(atLeast); got < 0.9*want || got > 1.1*want {
			t.Fatalf("%v nodes of height >= %d, want about %v", got, h, want)
		}
		atLeast -= counts[h]
	}
}

// TestSearchFieldsLeadTheNode pins the layout the package comment
// promises: key and links first, in one cache line, the value after.
func TestSearchFieldsLeadTheNode(t *testing.T) {
	var n node[[80]byte]
	if off := unsafe.Offsetof(n.value); off != 64 {
		t.Fatalf("value starts at byte %d; key and links must fill exactly the first 64", off)
	}
}

func TestAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	l := New[int](1)
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%08d", i*2654435761%100000))
	}
	// Slabs and tall towers amortize to a few allocations per
	// thousand inserts.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range keys {
		l.Upsert(k)
	}
	runtime.ReadMemStats(&after)
	if got := float64(after.Mallocs-before.Mallocs) / float64(len(keys)); got > 1.0/32 {
		t.Fatalf("insert allocates %.4f times, want at most 1/32", got)
	}
	i := 0
	if got := testing.AllocsPerRun(len(keys)-1, func() {
		v, _ := l.Upsert(keys[i])
		*v++
		_, _ = get(l, keys[i])
		i++
	}); got != 0 {
		t.Fatalf("update + get allocate %v times, want 0", got)
	}
}

func benchKeys() [][]byte {
	keys := make([][]byte, 10000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%08d", i*2654435761%10000))
	}
	return keys
}

func BenchmarkSkiplistInsert(b *testing.B) {
	l := New[int](1)
	keys := benchKeys()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := l.Upsert(keys[i%len(keys)])
		*v = i
	}
}

func BenchmarkSkiplistSeek(b *testing.B) {
	l := New[int](1)
	keys := benchKeys()
	for i, k := range keys {
		set(l, string(k), i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Seek(keys[i%len(keys)])
	}
}

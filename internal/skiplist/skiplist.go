// Package skiplist implements an ordered byte-string map: the row
// order of the storage engine's memtable. Keys are compared
// lexicographically. The list supports find-or-insert in one descent
// and ordered iteration from a seek position — what the memtable's
// flush and row scans need; its point accesses go through its own row
// index instead.
//
// The list is typed and allocation-lean: values live unboxed inside
// the nodes, nodes are carved out of per-list slabs, keys are the
// caller's (never copied), and towers of up to inlineHeight levels
// (255 nodes in 256) sit inside the node, so an insert allocates only
// when a slab runs out — a few times in a thousand — and an update of
// an existing key never. A list's nodes all die together, as a
// memtable's do at flush.
//
// The list is not safe for concurrent use: writers need exclusive
// access, readers may share it. The storage engine's lock provides
// that.
package skiplist

import (
	"bytes"
	"math/bits"
)

const (
	maxHeight = 16
	// Each level is kept with probability 1/4, the classic LSM choice
	// (LevelDB, RocksDB).
	pBits = 2
	// inlineHeight levels of a tower are stored in the node itself.
	// Taller towers — one node in 4^inlineHeight — spill the rest into
	// a second allocation.
	inlineHeight = 4
	// nodeSlab is the most nodes one allocation carves out. A young
	// list's slabs double from one node, so a list of a few entries
	// holds no more than it uses.
	nodeSlab = 256
)

// node keeps what a search reads — the key and the low links, which
// are most of the links a descent follows — together in its first 64
// bytes, ahead of the value. With the value between key and links the
// list measured no faster than the boxed one it replaced.
type node[V any] struct {
	key   []byte
	tower [inlineHeight]*node[V]
	tall  *[maxHeight - inlineHeight]*node[V]
	value V
}

func (n *node[V]) next(level int) *node[V] {
	if uint(level) < inlineHeight {
		return n.tower[level]
	}
	return n.tall[level-inlineHeight]
}

func (n *node[V]) setNext(level int, x *node[V]) {
	if uint(level) < inlineHeight {
		n.tower[level] = x
		return
	}
	n.tall[level-inlineHeight] = x
}

// List is an ordered map from []byte keys to values of type V.
type List[V any] struct {
	head   *node[V]
	height int
	length int
	rnd    uint64
	slab   []node[V] // nodes not handed out yet
}

// New returns an empty list. The seed makes tower heights (and thus
// performance characteristics) reproducible; correctness never depends
// on it.
func New[V any](seed int64) *List[V] {
	// splitmix64 of the seed: nearby seeds give unrelated streams, and
	// the xorshift state below must not be zero.
	x := uint64(seed) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return &List[V]{
		head:   &node[V]{tall: new([maxHeight - inlineHeight]*node[V])},
		height: 1,
		rnd:    (x ^ (x >> 31)) | 1,
	}
}

// Len returns the number of entries.
func (l *List[V]) Len() int { return l.length }

func (l *List[V]) randomHeight() int {
	l.rnd ^= l.rnd << 13
	l.rnd ^= l.rnd >> 7
	l.rnd ^= l.rnd << 17
	// Every pBits trailing zero bits (probability 1/4) add a level; the
	// sentinel bit caps the height.
	return 1 + bits.TrailingZeros64(l.rnd|1<<(pBits*(maxHeight-1)))/pBits
}

// newNode hands out the next node of the current slab, starting a new
// slab when it is used up.
func (l *List[V]) newNode() *node[V] {
	if len(l.slab) == 0 {
		l.slab = make([]node[V], min(l.length+1, nodeSlab))
	}
	n := &l.slab[0]
	l.slab = l.slab[1:]
	return n
}

// findGE returns the first node with key >= key and whether it is key.
// When prev is non-nil and key is absent, prev[i] for every level
// i < l.height is left at the last node of that level sorting before
// key (the head if none): where an insert of key links in.
func (l *List[V]) findGE(key []byte, prev *[maxHeight]*node[V]) (*node[V], bool) {
	x := l.head
	var bound *node[V] // first node known to be >= key
	for level := l.height - 1; level >= 0; level-- {
		for {
			nx := x.next(level)
			if nx == nil || nx == bound {
				break
			}
			if c := bytes.Compare(nx.key, key); c >= 0 {
				if c == 0 {
					return nx, true
				}
				bound = nx
				break
			}
			x = nx
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return bound, false
}

// Upsert looks key up, inserting it with a zero value if absent, and
// returns a pointer to the value with whether it was inserted. The
// caller stores or merges through the pointer, so a find-or-insert is
// one descent with no separate read. An inserted key is kept, not
// copied: the caller must never modify it afterwards. The pointer
// stays valid for the list's life; writing through it needs the same
// exclusive access Upsert does.
func (l *List[V]) Upsert(key []byte) (v *V, inserted bool) {
	var prev [maxHeight]*node[V]
	if n, ok := l.findGE(key, &prev); ok {
		return &n.value, false
	}
	h := l.randomHeight()
	for l.height < h {
		prev[l.height] = l.head
		l.height++
	}
	n := l.newNode()
	n.key = key
	if h > inlineHeight {
		n.tall = new([maxHeight - inlineHeight]*node[V])
	}
	for level := 0; level < h; level++ {
		n.setNext(level, prev[level].next(level))
		prev[level].setNext(level, n)
	}
	l.length++
	return &n.value, true
}

// Iterator walks the list in key order.
type Iterator[V any] struct {
	n *node[V]
}

// Iter returns an iterator positioned at the first entry.
func (l *List[V]) Iter() Iterator[V] { return Iterator[V]{n: l.head.tower[0]} }

// Seek returns an iterator positioned at the first entry with
// key >= from.
func (l *List[V]) Seek(from []byte) Iterator[V] {
	n, _ := l.findGE(from, nil)
	return Iterator[V]{n: n}
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator[V]) Valid() bool { return it.n != nil }

// Key returns the current key, the slice the entry was inserted with.
func (it *Iterator[V]) Key() []byte { return it.n.key }

// Value returns the current value.
func (it *Iterator[V]) Value() V { return it.n.value }

// Next advances to the following entry.
func (it *Iterator[V]) Next() { it.n = it.n.tower[0] }

// Package btree implements the B+tree that holds the Pequod store's rows
// (§4): every key-value pair lives in a leaf, leaves are chained in key
// order, and interior nodes hold separators only. A timeline scan
// therefore walks a few arrays instead of chasing one pointer per row,
// and the garbage collector marks two objects per leaf instead of one per
// row. The same tree orders a store's tables and subtables and, probed
// from the floor (AscendFloor), indexes the engine's disjoint ranges:
// join statuses and presence records.
//
// Five properties are load-bearing for Pequod:
//
//   - Packed leaves. A leaf keeps its keys' bytes in one byte arena,
//     addressed by a 16-bit offset and an 8-bit length per slot, beside
//     an array of values: two objects per leaf, not one per key. Arena
//     bytes are written once and never again: a new key goes past the
//     end of the arena whatever its slot, a removed one leaves its bytes
//     behind, and only moving to a new arena, when the old one is full
//     or mostly removed keys, drops them. So a scan hands out keys that
//     are views of the arena, copying nothing, and they stay valid for
//     as long as anyone holds them.
//
//   - Leaf fingers. A Hint remembers the leaf its last write landed in
//     (the paper's output hints, §4.2), and the slot. The next write
//     through the hint, or a run scan started from it, skips the descent
//     when that leaf still covers its key, which two comparisons against
//     the leaf's fences decide, and a write whose key goes right after
//     the remembered slot skips the search too. A leaf is freed only
//     when it empties and is then marked dead, and a hint knows its
//     tree, so a stale or foreign finger is detected and downgrades the
//     operation to a descent.
//
//   - Spill, then split. A write that finds its leaf full first moves
//     pairs into a sibling under the same parent that has room, and
//     splits only when neither has (B*-tree redistribution), so rows
//     written in no particular order — a subscribe's copy into the
//     middle of a timeline, base rows — still leave leaves about 80 to
//     87 % full (TestRandomInsertsStayDense). A write through a valid
//     hint is the next key of a run and keeps room right behind it: it
//     moves the pairs behind it into the right sibling only when all of
//     them fit there, spills left otherwise, and when it must split,
//     splits where the new key goes. An append at the very end of a leaf
//     never spills; it splits at the point. So append-mostly timelines,
//     and a first login's rows, which a join execution writes in key
//     order, leave full leaves behind without shifting other timelines'
//     rows on every append. A spill moves one fence and its separator; a
//     leaf keeps its identity.
//
//   - No merging. Deletion never moves pairs between leaves; a leaf or
//     interior node is unhooked when its last entry goes, and whichever
//     neighbour the separators then route the vacated range to takes
//     over its fence. Fill can therefore drop below half under deletion;
//     the store's accounting charges whole leaves, so that cost is seen.
//
//   - Range cuts. DeleteRange descends once and removes whole leaves at
//     a time, the shape eviction and invalidation have. A cut that takes
//     a leaf's head moves the leaf's fence up to its new first key, so
//     the vacated range goes to the leaf before it, where rows written
//     back into the range land beside the hint that wrote them.
//
// A Tree is not safe for concurrent writes; any number of readers may
// use it at once.
package btree

import (
	"encoding/binary"
	"slices"
	"strings"
	"unsafe"
)

// fanout is the capacity of a leaf in pairs and of an interior node in
// children. 62 is what fills the size classes: a leaf of 8-byte values
// is 760 bytes, which with the 8-byte header Go puts in front of large
// pointerful objects fills the 768 allocation size class (its arena is
// a separate object), and a 62-child interior node is 1992 bytes and
// fits the 2048 class. No benchmark has chosen it over another fanout
// for this layout (ROADMAP item 4).
const fanout = 62

// maxHeight bounds the depth of a tree: even half-full nodes would hold
// 30^12 pairs.
const maxHeight = 12

// maxKeyBytes bounds the arena bytes of a leaf holding two keys or
// more: the offsets that address the arena are 16 bits wide. A leaf of
// one key may hold a key of any length; a write that would break the
// bound gives the new key a leaf of its own (see grow).
const maxKeyBytes = 1<<16 - 1

// node is the sorted array an interior node is made of.
type node[T any] struct {
	n    int
	keys [fanout]string
	vals [fanout]T
}

func (nd *node[T]) insertAt(i int, k string, v T) {
	copy(nd.keys[i+1:nd.n+1], nd.keys[i:nd.n])
	copy(nd.vals[i+1:nd.n+1], nd.vals[i:nd.n])
	nd.keys[i], nd.vals[i] = k, v
	nd.n++
}

// removeRange deletes slots [i, j), clearing the vacated tail so it pins
// nothing.
func (nd *node[T]) removeRange(i, j int) {
	m := i + copy(nd.keys[i:], nd.keys[j:nd.n])
	copy(nd.vals[i:], nd.vals[j:nd.n])
	clear(nd.keys[m:nd.n])
	clear(nd.vals[m:nd.n])
	nd.n = m
}

// splitInsert makes room in the full node nd by moving its tail to the
// empty node right, then puts (k, v) at its sorted slot i of the old
// node. The cut is in the middle, except that an append at the very end
// leaves nd full and starts right with the new child.
func (nd *node[T]) splitInsert(right *node[T], i int, k string, v T) {
	cut := fanout / 2
	if i == fanout {
		cut = i
	}
	right.n = copy(right.keys[:], nd.keys[cut:])
	copy(right.vals[:], nd.vals[cut:])
	clear(nd.keys[cut:])
	clear(nd.vals[cut:])
	nd.n = cut
	if i > cut || cut == fanout {
		right.insertAt(i-cut, k, v)
		return
	}
	nd.insertAt(i, k, v)
}

// leaf holds pairs. lo is its lower fence: the leaf owns the keys in
// [lo, next.lo), whether or not it currently holds any of them. A leaf in
// the chain is never empty.
//
// Key i is arena[offs[i]:offs[i]+lens[i]]. A key of longLen bytes or
// more has lens[i] == longLen and its entry in the arena starts with
// its length, longHead bytes little-endian. Entries sit in the order
// they were written, not in slot order, and garbage counts the bytes of
// entries whose keys have left the leaf. The bytes below len(arena) are
// never written again: keys handed out are views of them. A scan reads offsets and
// lengths from the leaf and touches no key bytes.
type leaf[V any] struct {
	n, garbage int
	lo         string
	prev, next *leaf[V]
	arena      []byte
	offs       [fanout]uint16
	lens       [fanout]uint8
	dead       bool
	vals       [fanout]V
}

// longLen marks a key too long for its length to fit a slot's byte,
// and longHead is the length such a key's entry starts with.
const (
	longLen  = 0xff
	longHead = 4
)

// view returns b as a string without copying. b must never be written
// again.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// entry returns key i's entry in the arena.
func (lf *leaf[V]) entry(i int) []byte {
	a := lf.arena[lf.offs[i]:]
	if n := lf.lens[i]; n < longLen {
		return a[:n]
	}
	return a[:longHead+binary.LittleEndian.Uint32(a)]
}

// key returns key i, a view of the arena.
func (lf *leaf[V]) key(i int) string { return keyAt(lf.arena, lf.offs[i], lf.lens[i]) }

// keyAt returns the key whose entry is at arena[at:] with slot length
// n, a view of the arena. It takes no call, so it inlines into every
// search and scan.
func keyAt(arena []byte, at uint16, n uint8) string {
	a := arena[at:]
	if n == longLen {
		return view(a[longHead:][:binary.LittleEndian.Uint32(a)])
	}
	return view(a[:n])
}

// entrySize is the arena bytes an entry for key takes.
func entrySize(key string) int {
	if n := len(key); n < longLen {
		return n
	}
	return longHead + len(key)
}

// live is the arena bytes of the leaf's own keys.
func (lf *leaf[V]) live() int { return len(lf.arena) - lf.garbage }

// fits reports whether the leaf can take key without its keys' bytes
// outgrowing what its offsets address.
func (lf *leaf[V]) fits(key string) bool {
	return lf.n == 0 || lf.live()+entrySize(key) <= maxKeyBytes
}

// search returns the first slot whose key is >= key, or n, and whether
// that key is key itself.
func (lf *leaf[V]) search(key string) (int, bool) {
	lo, hi := 0, lf.n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if lf.key(m) < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < lf.n && lf.key(lo) == key
}

// covers reports whether a write of key belongs in lf.
func (lf *leaf[V]) covers(key string) bool {
	return !lf.dead && lf.lo <= key && (lf.next == nil || key < lf.next.lo)
}

// end returns where a scan bounded by hi stops in lf, and whether lf is
// the last leaf it visits: one comparison for every leaf but the last.
func (lf *leaf[V]) end(hi string) (int, bool) {
	if hi != "" && lf.key(lf.n-1) >= hi {
		i, _ := lf.search(hi)
		return i, true
	}
	return lf.n, false
}

// kid is a child pointer: lf at the bottom interior level, in above it.
type kid[V any] struct {
	in *inner[V]
	lf *leaf[V]
}

// empty reports whether the subtree k of height h has lost its last pair.
func (k kid[V]) empty(h int) bool {
	if h == 1 {
		return k.lf.dead
	}
	return k.in.n == 0
}

// inner routes: keys[i] (i >= 1) is the lower fence of child vals[i];
// keys[0] is unused, the node's own fence lives in its parent.
type inner[V any] struct {
	node[kid[V]]
}

// childFor returns the child whose range holds key: the last i with
// keys[i] <= key, or 0.
func (in *inner[V]) childFor(key string) int {
	lo, hi := 1, in.n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if in.keys[m] <= key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo - 1
}

// Tree is an ordered map from string keys to values of type V. The zero
// value is an empty tree.
type Tree[V any] struct {
	root   kid[V]
	height int // levels, the leaf level included; 0 when empty
	first  *leaf[V]

	size, leaves, inners int
	arenas               int // the capacity of every live leaf's arena

	// gen counts changes to the key set, so a scan whose callback wrote
	// to the tree can find its place again.
	gen uint64
}

// Hint is a leaf finger (§4.2): Set through the same Hint lands
// consecutive nearby keys without a descent. The zero value is an unset
// hint; a Hint must not be shared between trees that are in use at once
// (Set through a hint from another tree ignores it).
type Hint[V any] struct {
	lf *leaf[V]
	t  *Tree[V]
	i  int // the slot the last write took, if it is still that write's
}

// Valid reports whether the hint points at a live leaf.
func (h *Hint[V]) Valid() bool { return h != nil && h.lf != nil && !h.lf.dead }

// leafFor returns the hinted leaf when it is a live leaf of t that covers
// key, and nil when the caller must descend instead.
func (h *Hint[V]) leafFor(t *Tree[V], key string) *leaf[V] {
	if h != nil && h.t == t && h.lf != nil && h.lf.covers(key) {
		return h.lf
	}
	return nil
}

// Len returns the number of pairs.
func (t *Tree[V]) Len() int { return t.size }

// Nodes returns how many leaves and interior nodes the tree holds, for
// the owner's memory accounting.
func (t *Tree[V]) Nodes() (leaves, inners int) { return t.leaves, t.inners }

// ArenaBytes returns what the leaves' key arenas occupy: each one's
// capacity, which is its allocation size class.
func (t *Tree[V]) ArenaBytes() int { return t.arenas }

// setArena gives lf the arena a, counting the change in capacity.
func (t *Tree[V]) setArena(lf *leaf[V], a []byte) {
	t.arenas += cap(a) - cap(lf.arena)
	lf.arena = a
}

// compact moves lf's entries, in slot order and without garbage, to a
// new arena with room for extra more bytes, rounded up to its
// allocation size class.
func (t *Tree[V]) compact(lf *leaf[V], extra int) {
	var a []byte
	if size := lf.live() + extra; size > 0 {
		a = slices.Grow(a, size)
	}
	if lf.garbage == 0 {
		a = append(a, lf.arena...) // one copy, and the offsets hold
	} else {
		for i := 0; i < lf.n; i++ {
			e := lf.entry(i)
			lf.offs[i] = uint16(len(a))
			a = append(a, e...)
		}
	}
	t.setArena(lf, a)
	lf.garbage = 0
}

// reserve makes room for b more bytes at the end of lf's arena, where
// 16-bit offsets still address them. When it has none, or when a quarter
// of it is garbage that pairs moving out left behind, the entries move
// to a new arena with room for the leaf's free slots at its keys'
// average length, but at most as much again as they take: a leaf filled
// one key at a time copies its arena a few times, and one that filled
// up and spilled once copies it once more before it is full again.
func (t *Tree[V]) reserve(lf *leaf[V], b int) {
	live := lf.live()
	if n := len(lf.arena) + b; n > cap(lf.arena) || n > maxKeyBytes || lf.garbage > live/4 {
		room := live + b
		if lf.n > 0 {
			room = min(room, (fanout-lf.n-1)*live/lf.n)
		}
		t.compact(lf, b+room)
	}
}

// fit gives back the room removals left in lf's arena once it is more
// than reserve would have made: the entries move to an arena of the
// smallest size class that holds them. Removed rows thereby leave the
// heap, and the accounting that charges arenas at their capacity, with
// them.
func (t *Tree[V]) fit(lf *leaf[V]) {
	if n := lf.live(); cap(lf.arena) > n+n/4+16 {
		t.compact(lf, 0)
	}
}

// insertAt puts (key, v) at slot i of lf, which covers key, has a free
// slot and fits it, writing the key's entry past the end of the arena.
func (t *Tree[V]) insertAt(lf *leaf[V], i int, key string, v V) {
	t.reserve(lf, entrySize(key))
	at, n := len(lf.arena), uint8(min(len(key), longLen))
	if n == longLen {
		lf.arena = binary.LittleEndian.AppendUint32(lf.arena, uint32(len(key)))
	}
	lf.arena = append(lf.arena, key...)
	copy(lf.offs[i+1:lf.n+1], lf.offs[i:lf.n])
	copy(lf.lens[i+1:lf.n+1], lf.lens[i:lf.n])
	copy(lf.vals[i+1:lf.n+1], lf.vals[i:lf.n])
	lf.offs[i], lf.lens[i], lf.vals[i] = uint16(at), n, v
	lf.n++
}

// removeRange deletes slots [i, j), leaving their entries behind as
// garbage and clearing the vacated values so they pin nothing.
func (lf *leaf[V]) removeRange(i, j int) {
	for x := i; x < j; x++ {
		lf.garbage += len(lf.entry(x))
	}
	copy(lf.offs[i:], lf.offs[j:lf.n])
	copy(lf.lens[i:], lf.lens[j:lf.n])
	m := i + copy(lf.vals[i:], lf.vals[j:lf.n])
	clear(lf.vals[m:lf.n])
	lf.n = m
}

// pour inserts src's pairs [a, b) at slot at of dst, writing their
// entries past the end of dst's arena, which must fit them. src keeps
// them.
func (t *Tree[V]) pour(dst *leaf[V], at int, src *leaf[V], a, b int) {
	m := b - a
	t.reserve(dst, src.span(a, b))
	copy(dst.offs[at+m:dst.n+m], dst.offs[at:dst.n])
	copy(dst.lens[at+m:dst.n+m], dst.lens[at:dst.n])
	copy(dst.vals[at+m:dst.n+m], dst.vals[at:dst.n])
	copy(dst.lens[at:], src.lens[a:b])
	for x := a; x < b; x++ {
		dst.offs[at+x-a] = uint16(len(dst.arena))
		dst.arena = append(dst.arena, src.entry(x)...)
	}
	copy(dst.vals[at:], src.vals[a:b])
	dst.n += m
}

// span returns the arena bytes the entries of slots [a, b) take.
func (lf *leaf[V]) span(a, b int) int {
	size := 0
	for x := a; x < b; x++ {
		size += len(lf.entry(x))
	}
	return size
}

// path records the interior nodes a descent went through, root first,
// and the child taken at each.
type path[V any] struct {
	in [maxHeight]*inner[V]
	at [maxHeight]int
	n  int
}

// descend returns the leaf whose range holds key. The tree must not be
// empty.
func (t *Tree[V]) descend(key string, p *path[V]) *leaf[V] {
	k := t.root
	for h := t.height; h > 1; h-- {
		i := k.in.childFor(key)
		if p != nil {
			p.in[p.n], p.at[p.n] = k.in, i
			p.n++
		}
		k = k.in.vals[i]
	}
	return k.lf
}

// Get returns the value stored under key.
func (t *Tree[V]) Get(key string) (v V, ok bool) {
	if lf, i, found := t.seek(key); found {
		return lf.vals[i], true
	}
	return v, false
}

// Set stores v under key and returns the value it replaced, if any. With
// a non-nil hint it first tries the hinted leaf and leaves the hint on
// the leaf written.
func (t *Tree[V]) Set(key string, v V, h *Hint[V]) (old V, existed bool) {
	old, existed, _ = t.SetUnless(key, v, h, nil)
	return old, existed
}

// SetUnless is Set, except that when key already holds a value same
// reports equal to v, that value stays: nothing is written and kept is
// set. The one descent that finds key's slot makes the test, so a kept
// write costs a lookup and nothing more. The hint moves as for Set, to
// the leaf holding key, where the next key of a run goes. A nil same
// never keeps.
//
// A key the leaf cannot fit (maxKeyBytes) gets a leaf of its own.
func (t *Tree[V]) SetUnless(key string, v V, h *Hint[V], same func(old, v V) bool) (old V, existed, kept bool) {
	var p path[V]
	lf := h.leafFor(t, key)
	hinted := lf != nil
	switch {
	case hinted:
	case t.height == 0:
		lf = &leaf[V]{}
		t.root, t.first, t.height, t.leaves = kid[V]{lf: lf}, lf, 1, 1
	default:
		lf = t.descend(key, &p)
	}
	var i int
	var found bool
	if hinted && lf.follows(h.i, key) {
		i = h.i + 1 // the next key of a run: no search
	} else {
		i, found = lf.search(key)
	}
	if found {
		old, existed = lf.vals[i], true
		if kept = same != nil && same(old, v); !kept {
			lf.vals[i] = v
		}
	} else {
		if lf.n < fanout && lf.fits(key) {
			t.insertAt(lf, i, key, v)
		} else {
			if hinted {
				t.descend(key, &p) // a spill or split needs the way down to lf
			}
			lf = t.grow(lf, &p, i, hinted, key, v)
			i = -1 // somewhere in lf; the next write searches
		}
		t.size++
		t.gen++
	}
	if h != nil {
		h.lf, h.t, h.i = lf, t, i
	}
	return old, existed, kept
}

// follows reports whether key goes right after slot i: key i is below
// it and key i+1, if any, above. The slot a hint remembers may have
// moved since, and then the test fails and the write searches.
func (lf *leaf[V]) follows(i int, key string) bool {
	return i >= 0 && i < lf.n && lf.key(i) < key && (i+1 == lf.n || key < lf.key(i+1))
}

// grow puts (key, v) at its sorted slot i of lf, which p leads to and
// which has no room for it, and returns the leaf it went to: a sibling
// takes pairs from lf, or lf splits. A key lf cannot fit at all goes at
// an end of a leaf of its own: when it falls between two of lf's keys,
// lf is cut there first.
func (t *Tree[V]) grow(lf *leaf[V], p *path[V], i int, hinted bool, key string, v V) *leaf[V] {
	if lf.fits(key) {
		if to := t.spill(lf, p, i, hinted, key, v); to != nil {
			return to
		}
		return t.splitInsert(lf, p, i, hinted, key, v)
	}
	if i > 0 && i < lf.n {
		t.split(lf, p, i, strings.Clone(lf.key(i)), 0)
		if lf.fits(key) {
			t.insertAt(lf, i, key, v)
			return lf
		}
		p.n = 0
		t.descend(key, p) // the split may have moved lf in the tree
	}
	return t.splitInsert(lf, p, i, true, key, v)
}

// spill makes room in the full leaf lf, which p leads to, by moving
// pairs into a sibling under the same parent, then puts the new pair at
// its sorted slot i of lf into whichever of the two leaves owns key now,
// and returns that leaf. It returns nil, having moved nothing, when no
// sibling can take pairs, and for an append at the very end of lf: that
// one splits at the point, and its run fills the new leaf.
//
// A write through a hint is the next key of a run — a timeline's newest
// row, a join emitting one source's rows in order — and keeps room right
// behind it, as a split at the point would give it: the pairs behind the
// new key go to the right sibling only when all of them fit there, and
// otherwise the leaf's head goes to the left sibling. Any other write
// moves half the difference in free slots into whichever sibling has
// more room, so both leaves keep a free slot. A sibling that could not
// fit all of lf's keys and key has no room.
func (t *Tree[V]) spill(lf *leaf[V], p *path[V], i int, hinted bool, key string, v V) *leaf[V] {
	if p.n == 0 || i == fanout {
		return nil
	}
	in, at := p.in[p.n-1], p.at[p.n-1]
	room := func(s *leaf[V]) int {
		if s.live()+lf.live()+entrySize(key) > maxKeyBytes {
			return 0
		}
		return fanout - s.n
	}
	lroom, rroom := 0, 0
	if at > 0 {
		lroom = room(in.vals[at-1].lf)
	}
	if at+1 < in.n {
		rroom = room(in.vals[at+1].lf)
	}
	switch {
	case hinted && fanout-i <= rroom:
		return t.spillRight(lf, in.vals[at+1].lf, &in.keys[at+1], fanout-i, i, key, v)
	case !hinted && rroom > 1 && rroom >= lroom:
		return t.spillRight(lf, in.vals[at+1].lf, &in.keys[at+1], rroom/2, i, key, v)
	case lroom > 1:
		return t.spillLeft(lf, in.vals[at-1].lf, &in.keys[at], lroom/2, i, key, v)
	}
	return nil
}

// spillRight moves the full leaf lf's last m pairs to the head of its
// right sibling r, resets r's fence and sep, its separator, to match, and
// puts (key, v), whose sorted slot in lf was i, into the leaf that owns it.
func (t *Tree[V]) spillRight(lf, r *leaf[V], sep *string, m, i int, key string, v V) *leaf[V] {
	cut := fanout - m
	r.lo = strings.Clone(lf.key(cut))
	*sep = r.lo
	t.pour(r, 0, lf, cut, fanout)
	lf.removeRange(cut, fanout)
	if i > cut {
		t.insertAt(r, i-cut, key, v)
		t.fit(lf)
		return r
	}
	t.insertAt(lf, i, key, v)
	return lf
}

// spillLeft moves the full leaf lf's first m pairs to the tail of its
// left sibling l, resets lf's fence and sep, its separator, to match, and
// puts (key, v), whose sorted slot in lf was i, into the leaf that owns it.
func (t *Tree[V]) spillLeft(lf, l *leaf[V], sep *string, m, i int, key string, v V) *leaf[V] {
	lf.lo = strings.Clone(lf.key(m))
	*sep = lf.lo
	t.pour(l, l.n, lf, 0, m)
	lf.removeRange(0, m)
	if i <= m {
		t.insertAt(l, l.n-m+i, key, v)
		t.fit(lf)
		return l
	}
	t.insertAt(lf, i-m, key, v)
	return lf
}

// splitInsert splits lf, which p leads to, around the new pair at its
// sorted slot i and returns the leaf the pair went to. The cut is in the
// middle, except that it is at i when atPoint is set or i is the very
// end: the pairs before the new key stay packed and the next key of an
// ascending run finds room right behind it.
func (t *Tree[V]) splitInsert(lf *leaf[V], p *path[V], i int, atPoint bool, key string, v V) *leaf[V] {
	n := lf.n
	cut := n / 2
	if atPoint || i == n {
		cut = i
	}
	var right *leaf[V]
	switch {
	case cut == n:
		// The key after a full run. The run may go on at once, as a
		// first login's does, or one key per post, as a timeline's
		// newest rows do: the new leaf gets room for a quarter of lf's
		// keys, and grows as reserve grows it.
		right = t.split(lf, p, cut, strings.Clone(key), entrySize(key)+min(lf.live(), 4<<10)/4)
		i = 0
	case i > cut:
		moved := lf.span(cut, n)
		right = t.split(lf, p, cut, strings.Clone(lf.key(cut)), entrySize(key)+moved/4)
		i -= cut
	default:
		// The key stays in lf, whose next write compacts the garbage
		// the moved pairs left and makes room with it.
		t.split(lf, p, cut, strings.Clone(lf.key(cut)), 0)
		t.insertAt(lf, i, key, v)
		return lf
	}
	t.insertAt(right, i, key, v)
	t.fit(lf)
	return right
}

// split moves lf's pairs from slot cut on to a new leaf right after it,
// with fence lo and arena room for extra more bytes, hangs the new leaf
// beside lf in its parent, which p leads to, splitting full ancestors,
// and returns it. The moved pairs' entries stay in lf's arena as
// garbage; the caller writes to lf next or fits it.
func (t *Tree[V]) split(lf *leaf[V], p *path[V], cut int, lo string, extra int) *leaf[V] {
	right := &leaf[V]{lo: lo, prev: lf, next: lf.next}
	t.leaves++
	if lf.next != nil {
		lf.next.prev = right
	}
	lf.next = right
	if size := extra + lf.span(cut, lf.n); size > 0 {
		t.setArena(right, slices.Grow([]byte(nil), size))
	}
	t.pour(right, 0, lf, cut, lf.n)
	lf.removeRange(cut, lf.n)

	sep, k := right.lo, kid[V]{lf: right}
	for level := p.n - 1; level >= 0; level-- {
		in, at := p.in[level], p.at[level]+1
		if in.n < fanout {
			in.insertAt(at, sep, k)
			return right
		}
		r := &inner[V]{}
		t.inners++
		in.splitInsert(&r.node, at, sep, k)
		sep, k = r.keys[0], kid[V]{in: r}
	}
	root := &inner[V]{}
	t.inners++
	root.n = 2
	root.vals[0] = t.root
	root.keys[1], root.vals[1] = sep, k
	t.root = kid[V]{in: root}
	t.height++
	return right
}

// freeLeaf takes an emptied leaf out of the chain and marks it dead for
// whoever still holds a finger on it.
func (t *Tree[V]) freeLeaf(lf *leaf[V]) {
	if lf.prev != nil {
		lf.prev.next = lf.next
	} else {
		t.first = lf.next
	}
	if lf.next != nil {
		lf.next.prev = lf.prev
	}
	t.setArena(lf, nil)
	lf.prev, lf.next, lf.dead, lf.garbage = nil, nil, true, 0
	t.leaves--
}

// dropKids removes children [i, j) of in, a node at height h whose lower
// fence is fence. The separators now route the vacated range to the
// child before i — whose last leaf the chain already extends over it —
// or, when the first child went, to the new first child, whose leftmost
// leaf therefore inherits the fence.
func (t *Tree[V]) dropKids(in *inner[V], h, i, j int, fence string) {
	in.removeRange(i, j)
	if i == 0 && in.n > 0 {
		in.keys[0] = ""
		k := in.vals[0]
		for ; h > 2; h-- {
			k = k.in.vals[0]
		}
		k.lf.lo = fence
	}
}

// shrink resets an emptied tree and drops single-child roots, so descents
// stay as short as the surviving pairs allow.
func (t *Tree[V]) shrink() {
	if t.leaves == 0 {
		t.root, t.first, t.height, t.inners = kid[V]{}, nil, 0, 0
		return
	}
	for t.height > 1 && t.root.in.n == 1 {
		t.root = t.root.in.vals[0]
		t.height--
		t.inners--
	}
}

// Delete removes key and returns the value it held.
func (t *Tree[V]) Delete(key string) (old V, ok bool) {
	if t.height == 0 {
		return old, false
	}
	var p path[V]
	lf := t.descend(key, &p)
	i, found := lf.search(key)
	if !found {
		return old, false
	}
	old = lf.vals[i]
	lf.removeRange(i, i+1)
	t.size--
	t.gen++
	if lf.n > 0 {
		t.fit(lf)
		return old, true
	}
	fence := lf.lo
	t.freeLeaf(lf)
	// Unhook lf from its parent, and every ancestor that empties with
	// it from its own. Each emptied ancestor held lf alone, so wherever
	// the climb removes a first child, lf's fence is that node's.
	for level := p.n - 1; level >= 0; level-- {
		in := p.in[level]
		t.dropKids(in, t.height-level, p.at[level], p.at[level]+1, fence)
		if in.n > 0 {
			break
		}
		t.inners--
	}
	t.shrink()
	return old, true
}

// DeleteRange removes every key in [lo, hi) (hi == "" means unbounded),
// calling fn (if non-nil) for each removed pair in ascending order, and
// returns how many it removed. The keys fn is given are views of the
// leaves' arenas, as a scan's are. fn must not use the tree.
//
// When the cut takes the head of the leaf that now holds hi, that leaf's
// fence, and the separator routing to it, move up to its new first key:
// the vacated range goes to the leaf before, whose chain link already
// reaches it, so rows written back into the range through a hint on that
// leaf stay there.
func (t *Tree[V]) DeleteRange(lo, hi string, fn func(k string, v V)) int {
	if t.height == 0 || (hi != "" && hi <= lo) {
		return 0
	}
	n := t.cut(t.root, t.height, "", lo, hi, fn)
	if n == 0 {
		return 0
	}
	t.size -= n
	t.gen++
	if t.shrink(); t.height == 0 || hi == "" {
		return n
	}
	var p path[V]
	lf := t.descend(hi, &p)
	if lf != t.first && lf.lo >= lo && lf.lo < lf.key(0) {
		lf.lo = strings.Clone(lf.key(0))
		for level := p.n - 1; ; level-- {
			if at := p.at[level]; at > 0 {
				p.in[level].keys[at] = lf.lo
				break
			}
		}
	}
	return n
}

// cut is DeleteRange on the subtree k of height h whose lower fence is
// fence. It leaves k itself in place, empty or not, for its parent to
// unhook.
func (t *Tree[V]) cut(k kid[V], h int, fence, lo, hi string, fn func(k string, v V)) int {
	if h == 1 {
		lf := k.lf
		i, _ := lf.search(lo)
		j, _ := lf.end(hi)
		if j <= i {
			return 0
		}
		if fn != nil {
			for x := i; x < j; x++ {
				fn(lf.key(x), lf.vals[x])
			}
		}
		if lf.removeRange(i, j); lf.n > 0 {
			t.fit(lf)
		} else {
			t.freeLeaf(lf)
		}
		return j - i
	}
	in := k.in
	a, b := in.childFor(lo), in.n-1
	if hi != "" {
		b = in.childFor(hi)
	}
	// Every child strictly between a and b empties, so the emptied
	// children are one run [from, to).
	removed, from, to := 0, -1, -1
	for c := a; c <= b; c++ {
		f := fence
		if c > 0 {
			f = in.keys[c]
		}
		removed += t.cut(in.vals[c], h-1, f, lo, hi, fn)
		if !in.vals[c].empty(h - 1) {
			continue
		}
		if from < 0 {
			from = c
		}
		to = c + 1
	}
	if from >= 0 {
		if h > 2 {
			t.inners -= to - from
		}
		t.dropKids(in, h, from, to, fence)
	}
	return removed
}

// seek returns the position of the first key >= key: a leaf and a slot
// in it, which is the leaf's n when that key starts the next leaf, and
// whether the key there is key itself.
func (t *Tree[V]) seek(key string) (*leaf[V], int, bool) {
	if t.height == 0 {
		return nil, 0, false
	}
	lf := t.descend(key, nil)
	i, found := lf.search(key)
	return lf, i, found
}

// Ascend calls fn for every pair with lo <= key < hi in ascending order
// (hi == "" means unbounded) and reports whether it ran to the end; fn
// returning false stops it. fn may write to the tree: the scan then
// continues from the first key after the one fn was given. Keys are
// views of the leaves' arenas, whose bytes are never written again: fn
// may keep them, and a key kept holds its arena alive.
func (t *Tree[V]) Ascend(lo, hi string, fn func(k string, v V) bool) bool {
	lf, i, _ := t.seek(lo)
	return t.ascend(lf, i, hi, fn)
}

// AscendFloor is Ascend started one pair early when lo itself is not a
// key: at the last key below lo, if there is one. In a tree of disjoint
// ranges keyed by where they start, that is the one range starting
// outside [lo, hi) that can still reach into it.
func (t *Tree[V]) AscendFloor(lo, hi string, fn func(k string, v V) bool) bool {
	lf, i, found := t.seek(lo)
	switch {
	case lf == nil || found:
	case i > 0:
		i--
	case lf.prev != nil:
		lf = lf.prev
		i = lf.n - 1
	}
	return t.ascend(lf, i, hi, fn)
}

// ascend is the scan every Ascend runs, from slot i of lf.
func (t *Tree[V]) ascend(lf *leaf[V], i int, hi string, fn func(k string, v V) bool) bool {
	gen := t.gen
scan:
	for lf != nil {
		end, last := lf.end(hi)
		for ; i < end; i++ {
			k := lf.key(i)
			if !fn(k, lf.vals[i]) {
				return false
			}
			if t.gen != gen {
				gen = t.gen
				var found bool
				if lf, i, found = t.seek(k); found {
					i++
				}
				continue scan
			}
		}
		if last {
			break
		}
		lf, i = lf.next, 0
	}
	return true
}

// Keys is the keys of one leaf's share of a run scan, without copying:
// At returns views of the leaf's arena, which the caller may keep. The
// Keys value itself aliases the leaf and is valid only until the
// callback it was handed to returns.
type Keys struct {
	arena []byte
	offs  []uint16
	lens  []uint8
}

// Len returns the number of keys in the run.
func (k Keys) Len() int { return len(k.offs) }

// At returns key i of the run.
func (k Keys) At(i int) string { return keyAt(k.arena, k.offs[i], k.lens[i]) }

// AscendRuns is Ascend a leaf at a time: fn receives the keys and values
// of each leaf's share of [lo, hi), and rest, the number of pairs of the
// range that follow the run, so a caller copying the range out can make
// room once. Keys and values alias the leaf: fn must not keep or modify
// the value slice or the Keys value, nor write to the tree; the keys
// themselves it may keep.
//
// A non-nil h is where the scan may start: when its leaf is a live leaf
// of t covering lo, the scan begins there instead of descending from the
// root. Any other hint is ignored, so a hint can never change what the
// scan returns, only how it finds its first key. The hint is not moved.
func (t *Tree[V]) AscendRuns(lo, hi string, h *Hint[V], fn func(keys Keys, vals []V, rest int) bool) bool {
	var i int
	lf := h.leafFor(t, lo)
	if lf != nil {
		i, _ = lf.search(lo)
	} else {
		lf, i, _ = t.seek(lo)
	}
	rest := 0
	for l, from := lf, i; l != nil; l, from = l.next, 0 {
		end, last := l.end(hi)
		rest += max(end-from, 0)
		if last {
			break
		}
	}
	for ; rest > 0; lf, i = lf.next, 0 {
		if end, _ := lf.end(hi); i < end {
			rest -= end - i
			ks := Keys{arena: lf.arena, offs: lf.offs[i:end], lens: lf.lens[i:end]}
			if !fn(ks, lf.vals[i:end], rest) {
				return false
			}
		}
	}
	return true
}

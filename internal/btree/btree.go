// Package btree implements the B+tree that holds the Pequod store's rows
// (§4): every key-value pair lives in a leaf, leaves are chained in key
// order, and interior nodes hold separators only. A timeline scan
// therefore walks a few arrays instead of chasing one pointer per row,
// and the garbage collector marks one object per leaf instead of one per
// row. The same tree orders a store's tables and subtables and, probed
// from the floor (AscendFloor), indexes the engine's disjoint ranges:
// join statuses and presence records.
//
// Four properties are load-bearing for Pequod:
//
//   - Leaf fingers. A Hint remembers the leaf its last write landed in
//     (the paper's output hints, §4.2). The next write through the hint,
//     or a run scan started from it, skips the descent when that leaf
//     still covers its key, which two comparisons against the leaf's
//     fences decide. A leaf is freed only when it empties and is then
//     marked dead, and a hint knows its tree, so a stale or foreign
//     finger is detected and downgrades the operation to a descent.
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
//     a time, the shape eviction and invalidation have.
//
// A Tree is not safe for concurrent use.
package btree

// fanout is the capacity of a leaf in pairs and of an interior node in
// children. With 8-byte values a 61-pair leaf is 1512 bytes and a
// 61-child interior node 1960; with the 8-byte header Go puts in front of
// large pointerful objects they fill the 1536 and 2048 allocation size
// classes. BenchmarkScanInterleaved and BenchmarkPutHintAppend in
// internal/store chose it over 29 (768 B leaves) and 40 (1024 B).
const fanout = 61

// maxHeight bounds the depth of a tree: even half-full nodes would hold
// 30^12 pairs.
const maxHeight = 12

// node is the sorted array both kinds of tree node are made of: a leaf is
// a node of values, an interior node a node of children.
type node[T any] struct {
	n    int
	keys [fanout]string
	vals [fanout]T
}

// lowerBound returns the first slot whose key is >= key, or n.
func (nd *node[T]) lowerBound(key string) int {
	lo, hi := 0, nd.n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if nd.keys[m] < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
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
// node. The cut is in the middle, except that it is at i when atPoint is
// set or i is the very end: the pairs before the new key stay packed and
// the next key of an ascending run finds room right behind it.
func (nd *node[T]) splitInsert(right *node[T], i int, atPoint bool, k string, v T) (inRight bool) {
	cut := fanout / 2
	if atPoint || i == fanout {
		cut = i
	}
	right.n = copy(right.keys[:], nd.keys[cut:])
	copy(right.vals[:], nd.vals[cut:])
	clear(nd.keys[cut:])
	clear(nd.vals[cut:])
	nd.n = cut
	if i > cut || cut == fanout {
		right.insertAt(i-cut, k, v)
		return true
	}
	nd.insertAt(i, k, v)
	return false
}

// leaf holds pairs. lo is its lower fence: the leaf owns the keys in
// [lo, next.lo), whether or not it currently holds any of them. A leaf in
// the chain is never empty.
type leaf[V any] struct {
	node[V]
	lo         string
	prev, next *leaf[V]
	dead       bool
}

// covers reports whether a write of key belongs in lf.
func (lf *leaf[V]) covers(key string) bool {
	return !lf.dead && lf.lo <= key && (lf.next == nil || key < lf.next.lo)
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
	if lf, i := t.seek(key); lf != nil && i < lf.n && lf.keys[i] == key {
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
	i := lf.lowerBound(key)
	if i < lf.n && lf.keys[i] == key {
		old, existed = lf.vals[i], true
		if kept = same != nil && same(old, v); !kept {
			lf.vals[i] = v
		}
	} else {
		if lf.n < fanout {
			lf.insertAt(i, key, v)
		} else {
			if hinted {
				t.descend(key, &p) // a spill or split needs the way down to lf
			}
			if to := t.spill(lf, &p, i, hinted, key, v); to != nil {
				lf = to
			} else {
				lf = t.split(lf, &p, i, hinted, key, v)
			}
		}
		t.size++
		t.gen++
	}
	if h != nil {
		h.lf, h.t = lf, t
	}
	return old, existed, kept
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
// more room, so both leaves keep a free slot.
func (t *Tree[V]) spill(lf *leaf[V], p *path[V], i int, hinted bool, key string, v V) *leaf[V] {
	if p.n == 0 || i == fanout {
		return nil
	}
	in, at := p.in[p.n-1], p.at[p.n-1]
	lroom, rroom := 0, 0
	if at > 0 {
		lroom = fanout - in.vals[at-1].lf.n
	}
	if at+1 < in.n {
		rroom = fanout - in.vals[at+1].lf.n
	}
	switch {
	case hinted && fanout-i <= rroom:
		return spillRight(lf, in.vals[at+1].lf, &in.keys[at+1], fanout-i, i, key, v)
	case !hinted && rroom > 1 && rroom >= lroom:
		return spillRight(lf, in.vals[at+1].lf, &in.keys[at+1], rroom/2, i, key, v)
	case lroom > 1:
		return spillLeft(lf, in.vals[at-1].lf, &in.keys[at], lroom/2, i, key, v)
	}
	return nil
}

// spillRight moves the full leaf lf's last m pairs to the head of its
// right sibling r, resets r's fence and sep, its separator, to match, and
// puts (key, v), whose sorted slot in lf was i, into the leaf that owns it.
func spillRight[V any](lf, r *leaf[V], sep *string, m, i int, key string, v V) *leaf[V] {
	cut := fanout - m
	copy(r.keys[m:r.n+m], r.keys[:r.n])
	copy(r.vals[m:r.n+m], r.vals[:r.n])
	copy(r.keys[:m], lf.keys[cut:])
	copy(r.vals[:m], lf.vals[cut:])
	r.n += m
	lf.removeRange(cut, fanout)
	r.lo, *sep = r.keys[0], r.keys[0]
	if i > cut {
		r.insertAt(i-cut, key, v)
		return r
	}
	lf.insertAt(i, key, v)
	return lf
}

// spillLeft moves the full leaf lf's first m pairs to the tail of its
// left sibling l, resets lf's fence and sep, its separator, to match, and
// puts (key, v), whose sorted slot in lf was i, into the leaf that owns it.
func spillLeft[V any](lf, l *leaf[V], sep *string, m, i int, key string, v V) *leaf[V] {
	copy(l.keys[l.n:], lf.keys[:m])
	copy(l.vals[l.n:], lf.vals[:m])
	l.n += m
	lf.removeRange(0, m)
	lf.lo, *sep = lf.keys[0], lf.keys[0]
	if i <= m {
		l.insertAt(l.n-m+i, key, v)
		return l
	}
	lf.insertAt(i-m, key, v)
	return lf
}

// split splits the full leaf lf, which p leads to, around the new pair
// and returns the leaf the pair went to.
func (t *Tree[V]) split(lf *leaf[V], p *path[V], i int, atPoint bool, key string, v V) *leaf[V] {
	right := &leaf[V]{prev: lf, next: lf.next}
	t.leaves++
	target := lf
	if lf.splitInsert(&right.node, i, atPoint, key, v) {
		target = right
	}
	right.lo = right.keys[0]
	if lf.next != nil {
		lf.next.prev = right
	}
	lf.next = right

	// Hang right beside lf in its parent, splitting full ancestors.
	sep, k := right.lo, kid[V]{lf: right}
	for level := p.n - 1; level >= 0; level-- {
		in, at := p.in[level], p.at[level]+1
		if in.n < fanout {
			in.insertAt(at, sep, k)
			return target
		}
		r := &inner[V]{}
		t.inners++
		in.splitInsert(&r.node, at, false, sep, k)
		sep, k = r.keys[0], kid[V]{in: r}
	}
	root := &inner[V]{}
	t.inners++
	root.n = 2
	root.vals[0] = t.root
	root.keys[1], root.vals[1] = sep, k
	t.root = kid[V]{in: root}
	t.height++
	return target
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
	lf.prev, lf.next, lf.dead = nil, nil, true
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
		t.root, t.height, t.inners = kid[V]{}, 0, 0
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
	i := lf.lowerBound(key)
	if i == lf.n || lf.keys[i] != key {
		return old, false
	}
	old = lf.vals[i]
	lf.removeRange(i, i+1)
	t.size--
	t.gen++
	if lf.n > 0 {
		return old, true
	}
	t.freeLeaf(lf)
	// Unhook lf from its parent, and every ancestor that empties with
	// it from its own. Each emptied ancestor held lf alone, so wherever
	// the climb removes a first child, lf's fence is that node's.
	for level := p.n - 1; level >= 0; level-- {
		in := p.in[level]
		t.dropKids(in, t.height-level, p.at[level], p.at[level]+1, lf.lo)
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
// returns how many it removed. fn must not use the tree.
func (t *Tree[V]) DeleteRange(lo, hi string, fn func(k string, v V)) int {
	if t.height == 0 || (hi != "" && hi <= lo) {
		return 0
	}
	n := t.cut(t.root, t.height, "", lo, hi, fn)
	if n > 0 {
		t.size -= n
		t.gen++
		t.shrink()
	}
	return n
}

// cut is DeleteRange on the subtree k of height h whose lower fence is
// fence. It leaves k itself in place, empty or not, for its parent to
// unhook.
func (t *Tree[V]) cut(k kid[V], h int, fence, lo, hi string, fn func(k string, v V)) int {
	if h == 1 {
		lf := k.lf
		i, j := lf.lowerBound(lo), lf.n
		if hi != "" && lf.keys[j-1] >= hi {
			j = lf.lowerBound(hi)
		}
		if fn != nil {
			for x := i; x < j; x++ {
				fn(lf.keys[x], lf.vals[x])
			}
		}
		lf.removeRange(i, j)
		if lf.n == 0 {
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
// in it, which is the leaf's n when that key starts the next leaf.
func (t *Tree[V]) seek(key string) (*leaf[V], int) {
	if t.height == 0 {
		return nil, 0
	}
	lf := t.descend(key, nil)
	return lf, lf.lowerBound(key)
}

// end returns where a scan bounded by hi stops in lf, and whether lf is
// the last leaf it visits: one comparison for every leaf but the last.
func (lf *leaf[V]) end(hi string) (int, bool) {
	if hi != "" && lf.keys[lf.n-1] >= hi {
		return lf.lowerBound(hi), true
	}
	return lf.n, false
}

// Ascend calls fn for every pair with lo <= key < hi in ascending order
// (hi == "" means unbounded) and reports whether it ran to the end; fn
// returning false stops it. fn may write to the tree: the scan then
// continues from the first key after the one fn was given.
func (t *Tree[V]) Ascend(lo, hi string, fn func(k string, v V) bool) bool {
	lf, i := t.seek(lo)
	return t.ascend(lf, i, hi, fn)
}

// AscendFloor is Ascend started one pair early when lo itself is not a
// key: at the last key below lo, if there is one. In a tree of disjoint
// ranges keyed by where they start, that is the one range starting
// outside [lo, hi) that can still reach into it.
func (t *Tree[V]) AscendFloor(lo, hi string, fn func(k string, v V) bool) bool {
	lf, i := t.seek(lo)
	switch {
	case lf == nil || (i < lf.n && lf.keys[i] == lo):
	case i > 0:
		i--
	case lf.prev != nil:
		lf = lf.prev
		i = lf.n - 1
	}
	return t.ascend(lf, i, hi, fn)
}

// ascend is the scan both Ascends run, from slot i of lf.
func (t *Tree[V]) ascend(lf *leaf[V], i int, hi string, fn func(k string, v V) bool) bool {
	gen := t.gen
scan:
	for lf != nil {
		end, last := lf.end(hi)
		for ; i < end; i++ {
			k := lf.keys[i]
			if !fn(k, lf.vals[i]) {
				return false
			}
			if t.gen != gen {
				gen = t.gen
				if lf, i = t.seek(k); lf != nil && i < lf.n && lf.keys[i] == k {
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

// AscendRuns is Ascend a leaf at a time: fn receives the keys and values
// of each leaf's share of [lo, hi) as parallel slices into the leaf, and
// rest, the number of pairs of the range that follow the run, so a
// caller copying the range out can make room once. fn must not keep or
// modify the slices, nor write to the tree.
//
// A non-nil h is where the scan may start: when its leaf is a live leaf
// of t covering lo, the scan begins there instead of descending from the
// root. Any other hint is ignored, so a hint can never change what the
// scan returns, only how it finds its first key. The hint is not moved.
func (t *Tree[V]) AscendRuns(lo, hi string, h *Hint[V], fn func(keys []string, vals []V, rest int) bool) bool {
	var i int
	lf := h.leafFor(t, lo)
	if lf != nil {
		i = lf.lowerBound(lo)
	} else {
		lf, i = t.seek(lo)
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
			if !fn(lf.keys[i:end], lf.vals[i:end], rest) {
				return false
			}
		}
	}
	return true
}

// Package interval indexes overlapping key ranges [Lo, Hi): the engine's
// updaters (§3.2: "Many updaters can apply to a given key, so we store
// updaters in an interval tree. Whenever Pequod modifies its store, it
// finds all updaters applicable to the modified key"), a server's
// subscriptions and the backing database's.
//
// Instead of an augmented tree the index uses the '|' structure of
// Pequod keys. Each range lives in one bucket:
//
//   - a point [k, k+"\x00") in the bucket keyed by k;
//   - any other range in the bucket of the longest '|'-terminated prefix
//     P of its Lo with [Lo, Hi) ⊆ [P, P}), the keys that start with P;
//   - a range no such prefix holds (Hi unbounded, or spanning tables) in
//     one root slice.
//
// The buckets sit in one btree keyed by bucket. A stab of key k filters
// the root slice and probes each '|'-terminated prefix of k — and k
// itself while a bucket starting with k's first byte holds a point. That
// is correct for any key, since a range holding k lives under a prefix k
// starts with. It is fast when ranges are whole prefixes, as join
// sources and subscriptions are: every range in buckets s|u| and p|u|
// ([s|u|, s|u}), [p|u|T, p|u})) holds every key of its bucket from its
// Lo on, so a stab of p|u|T opens no entry that misses it, and a key
// whose table (first byte) holds no bucket, like the t|u|T|p of every
// timeline row a join emits, is one array lookup.
//
// A bucket is not always short. A timeline read from time T installs
// [p|u|T, p|u}) for each poster u followed, one range per distinct T, so
// a poster read by many bounded checks has many ranges in bucket p|u|:
// on the benchmark's cluster-cold workload (a timeline server evicting
// under a memory cap) one poster's bucket held 662, and a linear walk
// to a range examined 49 to 67 entries on average. So a bucket is kept
// in (Lo, Hi) order, an empty Hi last and equal ranges in insertion
// order, and its slots hold each range's bounds beside the entry's
// pointer: Find, FindOrInsert, Insert and Delete binary-search the one
// bucket, about log2 of its length entries (Exact counts them), and an
// edit of an existing bucket writes it in place through the btree
// descent that found it.
//
// An empty Hi means +infinity, matching the keys package convention. A
// Tree is not safe for concurrent use.
package interval

import (
	"fmt"
	"slices"
	"strings"

	"pequod/internal/btree"
	"pequod/internal/keys"
)

// Entry is an indexed range. Val may be mutated by the caller after
// insertion (updater merging relies on this).
type Entry[V any] struct {
	lo, hi string
	Val    V
}

// Lo returns the inclusive lower bound.
func (e *Entry[V]) Lo() string { return e.lo }

// Hi returns the exclusive upper bound ("" = +infinity).
func (e *Entry[V]) Hi() string { return e.hi }

// Range returns the entry's interval as a keys.Range.
func (e *Entry[V]) Range() keys.Range { return keys.Range{Lo: e.lo, Hi: e.hi} }

// slot is a bucket's hold on an entry: its bounds beside the pointer, so
// that searching or filtering a bucket reads no Entry.
type slot[V any] struct {
	lo, hi string
	e      *Entry[V]
}

// compare orders ranges by Lo, then by Hi, an empty Hi (+infinity) last.
func compare(lo, hi, lo2, hi2 string) int {
	if c := strings.Compare(lo, lo2); c != 0 || hi == hi2 {
		return c
	}
	switch {
	case hi == "":
		return 1
	case hi2 == "":
		return -1
	}
	return strings.Compare(hi, hi2)
}

// Tree is the index. The zero value is an empty index.
type Tree[V any] struct {
	root      []slot[V]
	buckets   btree.Tree[[]slot[V]]
	first     [256]struct{ entries, points int } // bucketed entries and points, by their table's first byte
	n, misses int
	exact     struct{ ops, examined int }
}

// New returns an empty index.
func New[V any]() *Tree[V] { return &Tree[V]{} }

// Len returns the number of ranges.
func (t *Tree[V]) Len() int { return t.n }

// Misses returns how many entries Stab and Overlap have opened that did
// not meet the query: zero while every bucket they probe is all hits.
func (t *Tree[V]) Misses() int { return t.misses }

// Exact returns how many exact operations (Find, FindOrInsert, Insert
// and Delete) the index has run and how many entries they examined: a
// binary search of one bucket each, about log2 of its length.
func (t *Tree[V]) Exact() (ops, examined int) { return t.exact.ops, t.exact.examined }

// home returns the bucket [lo, hi) lives in, "" for the root slice.
func home(lo, hi string) (bucket string) {
	for i := 0; i < len(lo); i++ {
		switch p := lo[:i+1]; {
		case lo[i] != keys.Sep:
		case bucket == "" && (keys.Range{Lo: lo, Hi: hi}).IsPoint():
			return lo
		case strings.HasPrefix(hi, p) || len(hi) == len(p) && hi[i] == keys.Sep+1 && hi[:i] == p[:i]:
			bucket = p // [lo, hi) stays under p: hi starts with p or is p's end, p}
		default:
			return bucket
		}
	}
	return bucket
}

// bucket returns the bucket [lo, hi) lives in, where its slots are kept
// (nil for a bucket that does not exist yet) and the slots, and counts
// an exact operation.
func (t *Tree[V]) bucket(lo, hi string) (b string, at *[]slot[V], es []slot[V]) {
	t.exact.ops++
	if b = home(lo, hi); b == "" {
		at = &t.root
	} else {
		at = t.buckets.Ref(b)
	}
	if at != nil {
		es = *at
	}
	return b, at, es
}

// search returns the first slot of es whose range is not ordered before
// [lo, hi), and whether that slot's range is [lo, hi) itself; with
// after, the first slot ordered after it. It counts the slots it reads.
func (t *Tree[V]) search(es []slot[V], lo, hi string, after bool) (i int, found bool) {
	j := len(es)
	for i < j {
		m := int(uint(i+j) >> 1)
		t.exact.examined++
		if c := compare(es[m].lo, es[m].hi, lo, hi); c < 0 || after && c == 0 {
			i = m + 1
		} else {
			j, found = m, c == 0
		}
	}
	return i, found
}

// Insert adds the range [lo, hi) carrying v and returns its Entry. It
// goes after the entries already there for [lo, hi).
func (t *Tree[V]) Insert(lo, hi string, v V) *Entry[V] {
	b, at, es := t.bucket(lo, hi)
	i, _ := t.search(es, lo, hi, true)
	e := &Entry[V]{lo: lo, hi: hi, Val: v}
	t.store(b, at, slices.Insert(es, i, slot[V]{lo, hi, e}), e, 1)
	return e
}

// FindOrInsert returns the first entry for exactly [lo, hi), as Find
// does, or inserts one carrying V's zero value, which the caller then
// sets, and reports whether it did. It searches the bucket once.
func (t *Tree[V]) FindOrInsert(lo, hi string) (e *Entry[V], added bool) {
	b, at, es := t.bucket(lo, hi)
	i, found := t.search(es, lo, hi, false)
	if found {
		return es[i].e, false
	}
	e = &Entry[V]{lo: lo, hi: hi}
	t.store(b, at, slices.Insert(es, i, slot[V]{lo, hi, e}), e, 1)
	return e, true
}

// Delete removes e. Deleting an entry twice is a no-op.
func (t *Tree[V]) Delete(e *Entry[V]) {
	b, at, es := t.bucket(e.lo, e.hi)
	// e is in the run of entries for its range, which starts where the
	// search stops.
	for i, _ := t.search(es, e.lo, e.hi, false); i < len(es) && es[i].lo == e.lo && es[i].hi == e.hi; i++ {
		if t.exact.examined++; es[i].e == e {
			t.store(b, at, slices.Delete(es, i, i+1), e, -1)
			return
		}
	}
}

// store makes es the slots of bucket b, kept at at, after e's insertion
// (d = 1) or removal (d = -1), keeping the counts. A bucket with no
// slots leaves the btree, and only a new one goes into it: an edit of
// an existing bucket costs the one descent that found it.
func (t *Tree[V]) store(b string, at *[]slot[V], es []slot[V], e *Entry[V], d int) {
	switch t.n += d; {
	case b != "" && len(es) == 0:
		t.buckets.Delete(b)
	case at != nil:
		*at = es
	default:
		t.buckets.Set(b, es, nil)
	}
	if b == "" {
		return
	}
	if t.first[b[0]].entries += d; e.Range().IsPoint() {
		t.first[b[0]].points += d
	}
}

// Find returns the first inserted entry for exactly [lo, hi), or nil.
func (t *Tree[V]) Find(lo, hi string) *Entry[V] {
	_, _, es := t.bucket(lo, hi)
	if i, found := t.search(es, lo, hi, false); found {
		return es[i].e
	}
	return nil
}

// Stab calls fn for every range containing key until fn returns false:
// the root slice's first, then bucket by bucket from key's shortest
// prefix to its longest (key itself last), each bucket in Lo order. fn
// must not modify the index; collect entries first if it needs to.
func (t *Tree[V]) Stab(key string, fn func(e *Entry[V]) bool) {
	in := func(r keys.Range) bool { return r.Contains(key) }
	visit := func(_ string, es []slot[V]) bool { return t.each(es, in, fn) }
	if visit("", t.root) && key != "" && t.first[key[0]].entries > 0 && t.prefixes(key, len(key), visit) &&
		t.first[key[0]].points > 0 && key[len(key)-1] != keys.Sep {
		es, _ := t.buckets.Get(key)
		visit(key, es)
	}
}

// Overlap calls fn for every non-empty range overlapping [lo, hi) (hi ==
// "" means +infinity) until fn returns false: the root slice's first,
// then the buckets of lo's proper prefixes, shortest first, then the
// buckets in [lo, hi) in key order, each bucket in Lo order. fn must not
// modify the index.
func (t *Tree[V]) Overlap(lo, hi string, fn func(e *Entry[V]) bool) {
	in := func(r keys.Range) bool { return r.Overlaps(keys.Range{Lo: lo, Hi: hi}) }
	visit := func(_ string, es []slot[V]) bool { return t.each(es, in, fn) }
	if visit("", t.root) && t.prefixes(lo, len(lo)-1, visit) {
		t.buckets.Ascend(lo, hi, visit)
	}
}

// prefixes calls visit with the bucket of each '|'-terminated prefix of
// key[:n] that has one, shortest first, and reports whether visit always
// returned true.
func (t *Tree[V]) prefixes(key string, n int, visit func(string, []slot[V]) bool) bool {
	for i := 0; i < n; i++ {
		if key[i] == keys.Sep {
			if es, ok := t.buckets.Get(key[:i+1]); ok && !visit(key[:i+1], es) {
				return false
			}
		}
	}
	return true
}

// each calls fn with the entries of es whose range is in, counting the
// others as misses, and reports whether fn always returned true.
func (t *Tree[V]) each(es []slot[V], in func(keys.Range) bool, fn func(e *Entry[V]) bool) bool {
	for i := range es {
		if s := &es[i]; !in(keys.Range{Lo: s.lo, Hi: s.hi}) {
			t.misses++
		} else if !fn(s.e) {
			return false
		}
	}
	return true
}

// Check validates the index — every entry in its home bucket beside its
// own bounds, buckets non-empty and in (Lo, Hi) order, the counts those
// of a rebuild, the btree sound — and returns how many buckets hold each
// number of entries, the root slice counting as one when it is not
// empty. It is exported for tests and is O(n).
func (t *Tree[V]) Check() (sizes map[int]int, err error) {
	sizes, u := make(map[int]int), New[V]()
	visit := func(b string, es []slot[V]) bool {
		sizes[len(es)]++
		for i, s := range es {
			u.Insert(s.lo, s.hi, s.e.Val)
			if s.lo != s.e.lo || s.hi != s.e.hi || home(s.lo, s.hi) != b || i > 0 && compare(es[i-1].lo, es[i-1].hi, s.lo, s.hi) > 0 {
				err = fmt.Errorf("interval: entry %s at %d of bucket %q", s.e.Range(), i, b)
			}
		}
		return err == nil
	}
	if visit("", t.root) && t.buckets.Ascend("", "", visit) {
		err = t.buckets.Check()
	}
	if delete(sizes, 0); err == nil && (u.n != t.n || u.first != t.first || u.buckets.Len() != t.buckets.Len()) {
		err = fmt.Errorf("interval: %d entries in %d buckets; a rebuild differs", t.n, t.buckets.Len())
	}
	return sizes, err
}

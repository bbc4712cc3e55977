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
// A bucket is a slice sorted by Lo, and the buckets sit in one btree
// keyed by bucket. A stab of key k filters the root slice and probes
// each '|'-terminated prefix of k — and k itself while a bucket starting
// with k's first byte holds a point. That is correct for any key, since
// a range holding k lives under a prefix k starts with. It is fast when
// ranges are whole prefixes, as join sources and subscriptions are:
// [s|u|, s|u}) and [p|u|0000000000, p|u}) sit alone in buckets s|u| and
// p|u|, so a stab of p|u|T is two btree probes, every entry it opens
// holds the key, and a key whose table (first byte) holds no bucket,
// like the t|u|T|p of every timeline row a join emits, is one array
// lookup.
//
// An empty Hi means +infinity, matching the keys package convention. A
// Tree is not safe for concurrent use.
package interval

import (
	"fmt"
	"slices"
	"sort"
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

// Tree is the index. The zero value is an empty index.
type Tree[V any] struct {
	root      []*Entry[V]
	buckets   btree.Tree[[]*Entry[V]]
	first     [256]struct{ entries, points int } // bucketed entries and points, by their table's first byte
	n, misses int
}

// New returns an empty index.
func New[V any]() *Tree[V] { return &Tree[V]{} }

// Len returns the number of ranges.
func (t *Tree[V]) Len() int { return t.n }

// Misses returns how many entries Stab and Overlap have opened that did
// not meet the query: zero while every bucket they probe is all hits.
func (t *Tree[V]) Misses() int { return t.misses }

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

// Insert adds the range [lo, hi) carrying v and returns its Entry.
func (t *Tree[V]) Insert(lo, hi string, v V) *Entry[V] {
	e := &Entry[V]{lo: lo, hi: hi, Val: v}
	t.edit(e, func(es []*Entry[V]) []*Entry[V] {
		return slices.Insert(es, sort.Search(len(es), func(i int) bool { return es[i].lo > lo }), e)
	})
	return e
}

// Delete removes e. Deleting an entry twice is a no-op.
func (t *Tree[V]) Delete(e *Entry[V]) {
	t.edit(e, func(es []*Entry[V]) []*Entry[V] {
		return slices.DeleteFunc(es, func(x *Entry[V]) bool { return x == e })
	})
}

// edit replaces e's bucket with what change makes of it, keeping the
// counts and dropping a bucket it empties.
func (t *Tree[V]) edit(e *Entry[V], change func([]*Entry[V]) []*Entry[V]) {
	b, es := home(e.lo, e.hi), t.root
	if b != "" {
		es, _ = t.buckets.Get(b)
	}
	d := len(es)
	es = change(es)
	d = len(es) - d
	switch t.n += d; {
	case b == "":
		t.root = es
		return
	case len(es) > 0:
		t.buckets.Set(b, es, nil)
	default:
		t.buckets.Delete(b)
	}
	if t.first[b[0]].entries += d; e.Range().IsPoint() {
		t.first[b[0]].points += d
	}
}

// Find returns an entry for exactly [lo, hi), or nil.
func (t *Tree[V]) Find(lo, hi string) *Entry[V] {
	es := t.root
	if b := home(lo, hi); b != "" {
		es, _ = t.buckets.Get(b)
	}
	if i := slices.IndexFunc(es, func(e *Entry[V]) bool { return e.lo == lo && e.hi == hi }); i >= 0 {
		return es[i]
	}
	return nil
}

// Stab calls fn for every range containing key until fn returns false:
// the root slice's first, then bucket by bucket from key's shortest
// prefix to its longest (key itself last), each bucket in Lo order. fn
// must not modify the index; collect entries first if it needs to.
func (t *Tree[V]) Stab(key string, fn func(e *Entry[V]) bool) {
	in := func(r keys.Range) bool { return r.Contains(key) }
	visit := func(_ string, es []*Entry[V]) bool { return t.each(es, in, fn) }
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
	visit := func(_ string, es []*Entry[V]) bool { return t.each(es, in, fn) }
	if visit("", t.root) && t.prefixes(lo, len(lo)-1, visit) {
		t.buckets.Ascend(lo, hi, visit)
	}
}

// prefixes calls visit with the bucket of each '|'-terminated prefix of
// key[:n] that has one, shortest first, and reports whether visit always
// returned true.
func (t *Tree[V]) prefixes(key string, n int, visit func(string, []*Entry[V]) bool) bool {
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
func (t *Tree[V]) each(es []*Entry[V], in func(keys.Range) bool, fn func(e *Entry[V]) bool) bool {
	for _, e := range es {
		if !in(e.Range()) {
			t.misses++
		} else if !fn(e) {
			return false
		}
	}
	return true
}

// Check validates the index — every entry in its home bucket, buckets
// non-empty and in Lo order, the counts those of a rebuild, the btree
// sound — and returns how many buckets hold each number of entries, the
// root slice counting as one when it is not empty. It is exported for
// tests and is O(n).
func (t *Tree[V]) Check() (sizes map[int]int, err error) {
	sizes, u := make(map[int]int), New[V]()
	visit := func(b string, es []*Entry[V]) bool {
		sizes[len(es)]++
		for i, e := range es {
			if u.Insert(e.lo, e.hi, e.Val); home(e.lo, e.hi) != b || i > 0 && es[i-1].lo > e.lo {
				err = fmt.Errorf("interval: entry %s at %d of bucket %q", e.Range(), i, b)
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
